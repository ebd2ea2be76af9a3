package repro.core.hcube

import java.io.{DataInputStream, DataOutputStream, InputStream, OutputStream, StreamCorruptedException}
import java.nio.ByteBuffer

import scala.reflect.ClassTag

import org.apache.spark.serializer.{DeserializationStream, SerializationStream, Serializer, SerializerInstance}

/** The Pull shuffle's wire format for its (cube, (ri, block)) records: the
  * cube id, `ri`, the block's row count and arity, then the block's longs,
  * row after row, in bulk through a reused byte buffer. It replaces Java
  * serialization, which pays an object header and a handle-table entry for
  * every tuple array. A block whose tuples differ in length is rejected.
  * Only the stream API is supported, which is all a shuffle uses.
  */
private[hcube] final class BlockSerializer extends Serializer with Serializable {
  override def newInstance(): SerializerInstance = new SerializerInstance {
    override def serializeStream(s: OutputStream): SerializationStream = new BlockSerializer.Out(s)
    override def deserializeStream(s: InputStream): DeserializationStream = new BlockSerializer.In(s)
    override def serialize[T: ClassTag](t: T): ByteBuffer = unsupported
    override def deserialize[T: ClassTag](bytes: ByteBuffer): T = unsupported
    override def deserialize[T: ClassTag](bytes: ByteBuffer, loader: ClassLoader): T = unsupported
  }

  private def unsupported = throw new UnsupportedOperationException("the Pull shuffle's serializer only streams")
}

private[hcube] object BlockSerializer {

  /** The longs a stream buffers, and so the widest tuple it carries. */
  private val BufferLongs = 1024

  private final class Out(s: OutputStream) extends SerializationStream {
    private val out   = new DataOutputStream(s)
    private val bytes = new Array[Byte](BufferLongs * 8)
    private val longs = ByteBuffer.wrap(bytes).asLongBuffer()

    override def writeKey[T: ClassTag](key: T): SerializationStream = {
      out.writeInt(key.asInstanceOf[Int])
      this
    }

    override def writeValue[T: ClassTag](value: T): SerializationStream = {
      val (ri, block) = value.asInstanceOf[(Int, Array[Array[Long]])]
      val arity = if (block.isEmpty) 0 else block(0).length
      require(arity <= BufferLongs, s"a tuple of $arity columns is wider than the Pull shuffle's buffer")
      out.writeInt(ri)
      out.writeInt(block.length)
      out.writeInt(arity)
      var i = 0
      while (i < block.length) {
        val t = block(i)
        require(t.length == arity, s"ragged block: tuple $i has ${t.length} columns, tuple 0 has $arity")
        if (longs.remaining < arity) drain()
        longs.put(t)
        i += 1
      }
      drain()
      this
    }

    /** Writes the buffered longs out and empties the buffer. */
    private def drain(): Unit = {
      out.write(bytes, 0, longs.position() * 8)
      longs.clear()
    }

    override def writeObject[T: ClassTag](t: T): SerializationStream = {
      val (key, value) = t.asInstanceOf[(Int, (Int, Array[Array[Long]]))]
      writeKey(key).writeValue(value)
    }

    override def flush(): Unit = out.flush()
    override def close(): Unit = out.close()
  }

  private final class In(s: InputStream) extends DeserializationStream {
    private val in    = new DataInputStream(s)
    private val bytes = new Array[Byte](BufferLongs * 8)
    private val longs = ByteBuffer.wrap(bytes).asLongBuffer()

    /** Throws `EOFException` at the end of the stream, which ends Spark's iterators. */
    override def readKey[T: ClassTag](): T = in.readInt().asInstanceOf[T]

    override def readValue[T: ClassTag](): T = {
      val ri    = in.readInt()
      val rows  = in.readInt()
      val arity = in.readInt()
      if (rows < 0 || arity < 0 || arity > BufferLongs)
        throw new StreamCorruptedException(s"a block of $rows rows of arity $arity")
      val perRead = if (arity == 0) rows else BufferLongs / arity
      val block   = new Array[Array[Long]](rows)
      var i = 0
      while (i < rows) {
        val n = math.min(perRead, rows - i)
        in.readFully(bytes, 0, n * arity * 8)
        longs.clear()
        var k = i
        i += n
        while (k < i) {
          block(k) = new Array[Long](arity)
          longs.get(block(k))
          k += 1
        }
      }
      (ri, block).asInstanceOf[T]
    }

    override def readObject[T: ClassTag](): T = {
      val key = readKey[Int]()
      (key, readValue[(Int, Array[Array[Long]])]()).asInstanceOf[T]
    }

    override def close(): Unit = in.close()
  }
}
