package repro.core.exec

import scala.math.Ordering.Implicits.seqOrdering

import org.apache.spark.rdd.RDD

import repro.{Oracle, SparkSpec}
import repro.baselines.SparkSqlJoin
import repro.core.{SparkTestData, TestHelpers}
import repro.core.adj.Adj
import repro.core.hcube.Rel
import repro.core.hypergraph.QueryLibrary

class MultiwayJoinSpec extends SparkSpec {

  private def rels(q: repro.core.hypergraph.Hypergraph, g: Seq[Array[Long]]) =
    SparkTestData.rels(spark, q, g)

  test("one-round triangle join matches the DuckDB oracle") {
    val g = TestHelpers.randomGraph(nodes = 20, edges = 50, seed = 7)
    val q = QueryLibrary.q1
    val (rdd, timings) = MultiwayJoin.execute(
      spark, rels(q, g), ord = Array(0, 1, 2), p = Array(2, 2, 2))
    val df = Adj.toDf(spark, rdd, q.attributes)
    Oracle.assertEquivalent(df, SparkSqlJoin.sql(q, "e"),
      "e" -> SparkTestData.graphDf(spark, g))
    assert(timings.communicationSec >= 0 && timings.computationSec >= 0)
  }

  test("one-round join with non-trivial shares matches the oracle (Q2)") {
    val g = TestHelpers.randomGraph(nodes = 15, edges = 40, seed = 8)
    val q = QueryLibrary.q2
    val (rdd, _, shares) = MultiwayJoin.executeOptimized(
      spark, rels(q, g), ord = Array(0, 1, 2, 3), numAttrs = 4, cubeBudget = 8)
    assert(shares.p.product >= 8 && shares.p.product <= 32)
    val df = Adj.toDf(spark, rdd, q.attributes)
    Oracle.assertEquivalent(df, SparkSqlJoin.sql(q, "e"),
      "e" -> SparkTestData.graphDf(spark, g))
  }

  test("one-round join matches the oracle under a permuted attribute order") {
    val g = TestHelpers.randomGraph(nodes = 14, edges = 35, seed = 9)
    val q = QueryLibrary.q4
    val (rdd, _) = MultiwayJoin.execute(
      spark, rels(q, g), ord = Array(4, 1, 0, 2, 3), p = Array(1, 2, 2, 1, 1))
    val df = Adj.toDf(spark, rdd, q.attributes)
    Oracle.assertEquivalent(df, SparkSqlJoin.sql(q, "e"),
      "e" -> SparkTestData.graphDf(spark, g))
  }

  test("single-cube execution (p all ones) equals the local naive join") {
    val g = TestHelpers.randomGraph(nodes = 10, edges = 24, seed = 11)
    val q = QueryLibrary.q1
    val (rdd, _) = MultiwayJoin.execute(spark, rels(q, g), Array(0, 1, 2), Array(1, 1, 1))
    val got = rdd.map(_.toVector).collect().toSet
    assert(got == TestHelpers.naiveJoin(q, TestHelpers.bindGraph(q, g)))
  }

  test("empty input yields an empty result") {
    val q = QueryLibrary.q1
    val empty = Seq.empty[Array[Long]]
    val (rdd, _) = MultiwayJoin.execute(spark, rels(q, empty), Array(0, 1, 2), Array(2, 2, 2))
    assert(rdd.isEmpty())
  }

  test("5-clique query on a graph with one 5-clique finds all 120 embeddings") {
    val clique = (1 to 5).flatMap(x => (1 to 5).filter(_ != x).map(y => Array(x.toLong, y.toLong)))
    val extra  = Seq(Array(6L, 7L), Array(7L, 6L))
    val q = QueryLibrary.q3
    val (rdd, _) = MultiwayJoin.execute(
      spark, rels(q, clique ++ extra), (0 until 5).toArray, Array(2, 2, 1, 1, 1))
    assert(rdd.count() == 120L)
  }

  test("relations sharing one input RDD join as they do over a separate copy per relation") {
    val sc = spark.sparkContext
    val g0 = TestHelpers.randomGraph(nodes = 12, edges = 40, seed = 13)
    val g  = g0 ++ g0.take(10) // duplicated rows multiply the matching results
    val h  = TestHelpers.randomGraph(nodes = 12, edges = 50, seed = 14)
    // Q2 (4-cycle with chord): the cycle's four atoms read g, the chord reads h.
    val q    = QueryLibrary.q2
    val data = q.atoms.indices.map(i => if (i == 4) h else g)
    def run(input: Int => RDD[Array[Long]]) = {
      val rels = q.atoms.indices.map(i =>
        Rel(q.atoms(i).name, q.atoms(i).attrs.map(q.attrId), input(i), data(i).length.toLong))
      MultiwayJoin.execute(spark, rels, Array(0, 1, 2, 3), Array(2, 2, 2, 1))._1.map(_.toVector).collect().toSeq.sorted
    }
    val (sharedG, ownH) = (sc.parallelize(g, 3), sc.parallelize(h, 2))
    val got = run(i => if (i == 4) ownH else sharedG)
    assert(got.nonEmpty && got.distinct.length < got.length) // some rows come out more than once
    assert(got == run(i => sc.parallelize(data(i), 3)))
  }

  test("the result is lazy: timings read 0 until it is drained, and a second drain counts once") {
    val g = TestHelpers.randomGraph(nodes = 16, edges = 40, seed = 12)
    val q = QueryLibrary.q1
    val (rdd, t) = MultiwayJoin.execute(spark, rels(q, g), Array(0, 1, 2), Array(2, 2, 1))
    assert(t.communicationSec > 0)
    assert(t.cubes.isEmpty && !t.drained && t.resultCount == 0 && t.computationSec == 0.0)
    val n = rdd.count()
    assert(t.drained && t.cubes.keySet == (0 until 4).toSet)
    assert(t.resultCount == n && t.computationSec > 0)
    assert(t.cubes.values.map(_.leapfrog.extensions).sum >= n)
    assert(rdd.count() == n && t.resultCount == n)
  }

  test("each cube's memo counters reach the timings (Q5 in textual order)") {
    val g = TestHelpers.randomGraph(nodes = 30, edges = 160, seed = 53)
    val q = QueryLibrary.q5
    val (rdd, t) = MultiwayJoin.execute(spark, rels(q, g), (0 until 5).toArray, Array(2, 2, 1, 1, 1))
    assert(rdd.map(_.toVector).collect().toSet == TestHelpers.naiveJoin(q, TestHelpers.bindGraph(q, g)))
    def sum(f: repro.core.lftj.LeapfrogStats => Array[Long]) =
      (0 until 5).map(l => t.cubes.values.map(c => f(c.leapfrog)(l)).sum)
    // Levels c and d (keyed by b, and by b and c) are memoized; a, b and e,
    // whose keys would hold a, are not.
    val hits = sum(_.memoHits)
    assert(hits(0) == 0 && hits(1) == 0 && hits(4) == 0 && hits(2) > 0 && hits(3) > 0, hits)
    assert(sum(_.memoStored).zip(hits).forall { case (s, h) => (s > 0) == (h > 0) })
  }
}
