package repro.core.hcube

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.{RDD, ShuffledRDD}

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

  /** Linearized cube ids a tuple of relation `attrs` must reach under `p`,
    * ascending.
    */
  def cubesFor(attrs: Vector[Int], tuple: Array[Long], p: Array[Int]): Seq[Int] = {
    val router = new Router(attrs, p)
    router.route(tuple)
    collection.immutable.ArraySeq.unsafeWrapArray(router.ids)
  }

  /** Routes the tuples of one relation (attribute ids `attrs`, one per
    * column) to their cubes under `p`, without allocating per tuple. A cube
    * id is the mixed-radix number of its coordinates, the last dimension
    * fastest, so it is the sum of a bound part, fixed by the tuple's hashes,
    * and a free part, one of the precomputed `offsets` over the dimensions
    * `attrs` leaves free. `route(t)` fills `ids` with t's cube ids,
    * ascending, and returns their count, which is the same for every tuple.
    */
  final class Router(attrs: Seq[Int], p: Array[Int]) {
    private val stride = p.indices.map(a => p.iterator.drop(a + 1).product).toArray
    // Each bound dimension is hashed from the last column that carries it.
    private val dims = attrs.distinct.toArray
    private val cols = dims.map(attrs.lastIndexOf(_))
    private val offsets = p.indices.filterNot(dims.contains).foldLeft(Array(0)) { (acc, a) =>
      for (o <- acc; d <- 0 until p(a)) yield o + d * stride(a)
    }
    /** The cube ids of the last routed tuple. */
    val ids = new Array[Int](offsets.length)

    def route(tuple: Array[Long]): Int = {
      var base = 0
      var i = 0
      while (i < dims.length) {
        val a = dims(i)
        base += hash(tuple(cols(i)), p(a)) * stride(a)
        i += 1
      }
      i = 0
      while (i < offsets.length) { ids(i) = base + offsets(i); i += 1 }
      offsets.length
    }
  }

  /** Block-wise ("Pull") shuffle (Sec. V): tuples of one relation headed for
    * one cube are grouped into a single block before crossing the wire, so
    * the shuffle moves O(#blocks) records instead of O(#tuple copies). Each
    * record is (cube, (ri, block)), with `ri` the relation's index in `rels`.
    *
    * Relations that read the same RDD (a self-join's atoms) share one map
    * pass: each distinct input is read once, and every tuple is routed for
    * each relation over that input. The map side therefore runs one task per
    * partition of each distinct input, so its parallelism is the inputs' own
    * partitioning, as for any Spark scan. The blocks cross the wire as flat
    * longs (`BlockSerializer`), not as Java-serialized tuple arrays.
    */
  def shufflePull(rels: Seq[Rel], p: Array[Int]): RDD[(Int, (Int, Array[Array[Long]]))] = {
    val cubes = p.product
    val rdds = rels.map(_.rdd).distinctBy(_.id).map { input =>
      val ris   = rels.indices.filter(rels(_).rdd.id == input.id).toArray
      val attrs = ris.map(rels(_).attrs)
      input.mapPartitions { it =>
        // Per relation over this input: one router, and one block buffer per cube.
        val routers = attrs.map(new Router(_, p))
        val buf     = Array.fill(ris.length, cubes)(collection.mutable.ArrayBuffer.empty[Array[Long]])
        it.foreach { t =>
          var j = 0
          while (j < ris.length) {
            val r = routers(j)
            val b = buf(j)
            val n = r.route(t)
            var k = 0
            while (k < n) { b(r.ids(k)) += t; k += 1 }
            j += 1
          }
        }
        for {
          j <- ris.indices.iterator
          c <- (0 until cubes).iterator
          if buf(j)(c).nonEmpty
        } yield (c, (ris(j), buf(j)(c).toArray))
      }
    }
    // An Int cube id in [0, cubes) hashes to itself, so cube c is partition c.
    new ShuffledRDD[Int, (Int, Array[Array[Long]]), (Int, Array[Array[Long]])](
      rdds.reduce(_ union _), new HashPartitioner(cubes)).setSerializer(new BlockSerializer)
  }
}
