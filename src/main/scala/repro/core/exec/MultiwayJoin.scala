package repro.core.exec

import scala.jdk.CollectionConverters._

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.util.CollectionAccumulator

import repro.core.hcube.{HCube, Rel, Shares}
import repro.core.lftj.{Leapfrog, LeapfrogStats, TrieRelation}

/** The one-round multiway join executor (HCubeJ's execution layer): HCube
  * shuffle with a given share vector, then per-hypercube trie construction
  * and Leapfrog triejoin.
  *
  * Only the shuffle runs eagerly. The returned result is lazy and is not
  * persisted: each of its partitions evaluates one hypercube whenever a
  * consumer reads it, so a consumer that drains it once evaluates the join
  * once. A task that exhausts its hypercube adds (cube id, [[CubeStats]]) to
  * an accumulator; [[Timings]] reads the computation phase and the result
  * size from there, keeping one record per cube id.
  *
  * Output tuples are in *attribute-id* order (column k = global attribute k),
  * restricted to the attributes the participating relations bind.
  */
object MultiwayJoin {

  /** Name of the cube-stats accumulators, as listeners and the Spark UI see it. */
  val AccumulatorName = "adj.cubes"

  /** One hypercube's evaluation: its start (epoch milliseconds on the task's
    * clock), its seconds from reading its first block until its Leapfrog was
    * exhausted, its Leapfrog counters and the rows it emitted (each binding
    * as often as its bag multiplicity). The seconds include whatever work
    * the consumer does per row in the same task.
    */
  final case class CubeStats(startMs: Long, sec: Double, leapfrog: LeapfrogStats, rows: Long)

  /** Phases of one execution, in seconds, plus the result size.
    *
    * `communicationSec` is the HCube shuffle, which `execute` forces. The
    * rest comes from the cubes the result's consumers have drained, so it is
    * defined once the result has been drained: until the first cube is
    * drained `computationSec` and `resultCount` are 0, and after a partial
    * drain they cover the drained cubes only. A cube evaluated again (a
    * second drain, or a retried task) replaces its earlier record, so nothing
    * is counted twice.
    *
    * @param numCubes Π p, the number of hypercubes (= result partitions)
    */
  final class Timings private[exec] (
      val communicationSec: Double,
      val numCubes: Int,
      acc: CollectionAccumulator[(Int, CubeStats)],
  ) {

    /** Stats of every drained cube, by cube id (= result partition index). */
    def cubes: Map[Int, CubeStats] = acc.value.asScala.toMap

    /** Whether every hypercube has been drained. */
    def drained: Boolean = cubes.size == numCubes

    /** Wall-clock span from the first drained cube's start to the last one's end. */
    def computationSec: Double = {
      val cs = cubes.values
      if (cs.isEmpty) 0.0 else cs.map(c => c.startMs / 1e3 + c.sec).max - cs.map(_.startMs).min / 1e3
    }

    def resultCount: Long = cubes.valuesIterator.map(_.rows).sum
  }

  /** Derives the trie level of every attribute from an attribute order.
    *
    * @param ord attribute ids in evaluation order; must cover all attrs used
    */
  def levelOf(ord: Array[Int]): Map[Int, Int] = ord.zipWithIndex.toMap

  /** Runs the one-round join.
    *
    * @param rels       input relations (global attribute ids per column)
    * @param ord        Leapfrog attribute order over exactly the attrs used
    * @param p          HCube share vector indexed by attribute id
    * @return (result RDD of tuples in attribute-id order, timings); the
    *         shuffle has run, the join has not: it runs when the result is
    *         drained, and again on every further drain
    */
  def execute(
      spark: SparkSession,
      rels: Seq[Rel],
      ord: Array[Int],
      p: Array[Int],
  ): (RDD[Array[Long]], Timings) = {
    val lvl   = levelOf(ord)
    val n     = ord.length
    // Row reorder: output column = attribute id ascending over used attrs.
    val outPerm = ord.sorted.map(lvl) // out col k takes binding(levels)

    // Communication phase: run the shuffle's map side. The result reads the
    // same shuffle, so its consumer's job skips the map stage.
    val t0       = System.nanoTime()
    val shuffled = HCube.shufflePull(rels, p)
    shuffled.foreachPartition(_ => ())
    val commSec = (System.nanoTime() - t0) / 1e9

    val acc = spark.sparkContext.collectionAccumulator[(Int, CubeStats)](AccumulatorName)
    val relAttrs = rels.map(_.attrs).toArray
    val result = shuffled.mapPartitionsWithIndex { (cube, it) =>
      val startMs = System.currentTimeMillis()
      val start   = System.nanoTime()
      val stats   = new LeapfrogStats(n)
      val perRel  = Array.fill(relAttrs.length)(collection.mutable.ArrayBuffer.empty[Array[Long]])
      it.foreach { case (_, (ri, block)) => perRel(ri) ++= block }
      // A cube with an empty input has no result and builds no tries.
      val lf =
        if (perRel.exists(_.isEmpty)) null
        else new Leapfrog(relAttrs.indices.map(ri => TrieRelation.build(relAttrs(ri), lvl, perRel(ri))), n,
          stats = stats)
      new Iterator[Array[Long]] {
        private var open    = true
        private var row: Array[Long] = _
        private var copies  = 0L // further copies of `row` to emit
        private var emitted = 0L
        override def hasNext: Boolean = {
          val more = copies > 0 || (lf != null && lf.hasNext)
          if (!more && open) {
            open = false
            acc.add(cube -> CubeStats(startMs, (System.nanoTime() - start) / 1e9, stats, emitted))
          }
          more
        }
        override def next(): Array[Long] = {
          if (copies == 0) { row = lf.next(); copies = lf.multiplicity }
          copies -= 1
          emitted += 1
          val out = new Array[Long](n)
          var k = 0
          while (k < n) { out(k) = row(outPerm(k)); k += 1 }
          out
        }
      }
    }
    (result, new Timings(commSec, p.product, acc))
  }

  /** Optimizes shares for the given relations and budget, executes, and
    * also returns the shares: every join ADJ runs, bag or final, gets the
    * shares that minimize the tuples shuffled over its own inputs.
    */
  def executeOptimized(
      spark: SparkSession,
      rels: Seq[Rel],
      ord: Array[Int],
      numAttrs: Int,
      cubeBudget: Int,
  ): (RDD[Array[Long]], Timings, Shares.Result) = {
    val shares = Shares.optimize(rels.map(r => (r.attrs.toSet, r.size)), numAttrs, cubeBudget)
    val (rdd, t) = execute(spark, rels, ord, shares.p)
    (rdd, t, shares)
  }
}
