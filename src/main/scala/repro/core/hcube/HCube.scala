package repro.core.hcube

import org.apache.spark.Partitioner
import org.apache.spark.rdd.RDD

/** A relation participating in a one-round join: positional Long tuples plus
  * the global attribute id of each column.
  *
  * @param name  display name
  * @param attrs global attribute ids, parallel to tuple columns
  * @param rdd   the tuples
  * @param size  tuple count (used by the shares optimizer / cost model)
  */
final case class Rel(name: String, attrs: Vector[Int], rdd: RDD[Array[Long]], size: Long)

/** One-round HCube shuffle (Afrati–Ullman / Beame–Koutris–Suciu [12], [13]).
  *
  * The join output space is divided into Π p_i hypercubes; each input tuple
  * is replicated to every hypercube whose coordinate matches the tuple's
  * attribute hashes on the tuple's own attributes. One Spark partition hosts
  * exactly one hypercube, so the per-partition Leapfrog emits every output
  * tuple exactly once (an output's coordinate is fully determined by its
  * attribute hashes).
  */
object HCube {

  /** 64-bit mix then bucket — cheap, well-spread attribute hash. */
  def hash(value: Long, buckets: Int): Int = {
    if (buckets == 1) return 0
    var h = value * -7046029254386353131L
    h ^= h >>> 32
    (java.lang.Math.floorMod(h, buckets.toLong)).toInt
  }

  private final class CubePartitioner(cubes: Int) extends Partitioner {
    def numPartitions: Int = cubes
    def getPartition(key: Any): Int = key.asInstanceOf[Int]
  }

  /** Linearized cube ids a tuple of relation `attrs` must reach under `p`,
    * ascending.
    */
  def cubesFor(attrs: Vector[Int], tuple: Array[Long], p: Array[Int]): Seq[Int] = {
    val n = p.length
    val coord = Array.fill(n)(-1)
    var i = 0
    while (i < attrs.length) { coord(attrs(i)) = hash(tuple(i), p(attrs(i))); i += 1 }
    // Mixed-radix counter over the free dimensions, the last one fastest;
    // `digit` holds the bound coordinates and the counter's free digits.
    var count = 1
    var a = 0
    while (a < n) { if (coord(a) < 0) count *= p(a); a += 1 }
    val digit = coord.map(math.max(_, 0))
    val ids   = new Array[Int](count)
    var k = 0
    while (k < count) {
      var id = 0
      a = 0
      while (a < n) { id = id * p(a) + digit(a); a += 1 }
      ids(k) = id
      var carry = true
      a = n - 1
      while (carry && a >= 0) {
        if (coord(a) < 0) {
          digit(a) += 1
          carry = digit(a) == p(a)
          if (carry) digit(a) = 0
        }
        a -= 1
      }
      k += 1
    }
    collection.immutable.ArraySeq.unsafeWrapArray(ids)
  }

  /** Block-wise ("Pull") shuffle (Sec. V): tuples of one relation headed for
    * one cube are grouped into a single block before crossing the wire, so
    * the shuffle moves O(#blocks) records instead of O(#tuple copies).
    */
  def shufflePull(rels: Seq[Rel], p: Array[Int]): RDD[(Int, (Int, Array[Array[Long]]))] = {
    val cubes = p.product
    val rdds = rels.zipWithIndex.map { case (rel, ri) =>
      val attrs = rel.attrs
      val pb    = p
      rel.rdd
        .mapPartitions { it =>
          // Group locally per (cube) to form blocks.
          val buf = collection.mutable.HashMap.empty[Int, collection.mutable.ArrayBuffer[Array[Long]]]
          it.foreach { t =>
            cubesFor(attrs, t, pb).foreach { c =>
              buf.getOrElseUpdate(c, collection.mutable.ArrayBuffer.empty) += t
            }
          }
          buf.iterator.map { case (c, ts) => (c, (ri, ts.toArray)) }
        }
    }
    rdds.reduce(_ union _).partitionBy(new CubePartitioner(cubes))
  }
}
