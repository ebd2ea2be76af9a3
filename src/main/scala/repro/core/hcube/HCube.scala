package repro.core.hcube

import org.apache.spark.HashPartitioner
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
    * the shuffle moves O(#blocks) records instead of O(#tuple copies). Each
    * record is (cube, (ri, block)), with `ri` the relation's index in `rels`.
    *
    * Relations that read the same RDD (a self-join's atoms) share one map
    * pass: each distinct input is read once, and every tuple is routed for
    * each relation over that input. The map side therefore runs one task per
    * partition of each distinct input, so its parallelism is the inputs' own
    * partitioning, as for any Spark scan.
    */
  def shufflePull(rels: Seq[Rel], p: Array[Int]): RDD[(Int, (Int, Array[Array[Long]]))] = {
    val cubes = p.product
    val rdds = rels.map(_.rdd).distinctBy(_.id).map { input =>
      val ris   = rels.indices.filter(rels(_).rdd.id == input.id).toArray
      val attrs = ris.map(rels(_).attrs)
      input.mapPartitions { it =>
        // One block buffer per (relation over this input, cube).
        val buf = Array.fill(ris.length, cubes)(collection.mutable.ArrayBuffer.empty[Array[Long]])
        it.foreach { t =>
          var j = 0
          while (j < ris.length) { cubesFor(attrs(j), t, p).foreach(buf(j)(_) += t); j += 1 }
        }
        for {
          j <- ris.indices.iterator
          c <- (0 until cubes).iterator
          if buf(j)(c).nonEmpty
        } yield (c, (ris(j), buf(j)(c).toArray))
      }
    }
    // An Int cube id in [0, cubes) hashes to itself, so cube c is partition c.
    rdds.reduce(_ union _).partitionBy(new HashPartitioner(cubes))
  }
}
