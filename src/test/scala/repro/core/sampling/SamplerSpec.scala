package repro.core.sampling

import repro.SparkSpec
import repro.core.TestHelpers
import repro.core.hcube.Rel
import repro.core.hypergraph.QueryLibrary

class SamplerSpec extends SparkSpec {

  private def rels(q: repro.core.hypergraph.Hypergraph, g: Seq[Array[Long]]) = {
    val rdd = spark.sparkContext.parallelize(g, 4)
    q.atoms.indices.map { i =>
      Rel(q.atoms(i).name, q.atoms(i).attrs.map(q.attrId), rdd, g.length.toLong)
    }.toIndexedSeq
  }

  test("full-sample estimate of the triangle count is exact") {
    val g = TestHelpers.randomGraph(nodes = 15, edges = 40, seed = 21)
    val q = QueryLibrary.q1
    // samples >= |val(A)| means every value is evaluated: estimate == truth.
    val sampler = new Sampler(spark, rels(q, g), samples = 10000)
    val est  = sampler.estimateJoin(q.edges.flatten.toSet, q.atoms.indices)
    val truth = TestHelpers.naiveJoin(q, TestHelpers.bindGraph(q, g)).size
    assert(math.abs(est.card - truth) < 1e-6, s"est ${est.card} truth $truth")
  }

  test("estimate of a projection join (edge attr pair) matches the edge count") {
    val g = TestHelpers.randomGraph(nodes = 12, edges = 30, seed = 22)
    val q = QueryLibrary.q1
    val sampler = new Sampler(spark, rels(q, g), samples = 10000)
    // S = {a, b}: the projection join over all three relations is
    // π_ab R1 ⋈ π_b R2 ⋈ π_a R3 = edges whose endpoints both have neighbors
    // — on a symmetrized dedup graph that is just the edge set.
    val est = sampler.estimateJoin(Set(q.attrId("a"), q.attrId("b")), q.atoms.indices)
    assert(math.abs(est.card - g.size) < 1e-6, s"est ${est.card} edges ${g.size}")
  }

  test("sampled estimate is within a reasonable band of the truth") {
    val g = TestHelpers.skewedGraph(nodes = 60, edges = 300, seed = 23)
    val q = QueryLibrary.q1
    val sampler = new Sampler(spark, rels(q, g), samples = 60)
    val est  = sampler.estimateJoin(q.edges.flatten.toSet, q.atoms.indices)
    val truth = TestHelpers.naiveJoin(q, TestHelpers.bindGraph(q, g)).size.toDouble
    // Chernoff-Hoeffding-style band: sampling over a skewed root degree
    // distribution with 60 of the values — allow 4x relative slack.
    assert(est.card >= 0)
    if (truth > 0) {
      val d = math.max(est.card, truth) / math.max(1.0, math.min(est.card, truth))
      assert(d <= 4.0, s"relative difference $d too large (est ${est.card}, truth $truth)")
    }
  }

  test("empty intersection gives a zero estimate") {
    // Bipartite-ish directed construction with no symmetric closure: make
    // a graph where attr values of a never intersect across relations.
    val rdd = spark.sparkContext.parallelize(Seq(Array(1L, 2L)), 1)
    val r = IndexedSeq(
      Rel("R1", Vector(0, 1), rdd, 1L),
      Rel("R2", Vector(1, 2), spark.sparkContext.parallelize(Seq(Array(5L, 6L)), 1), 1L),
      Rel("R3", Vector(0, 2), spark.sparkContext.parallelize(Seq(Array(7L, 8L)), 1), 1L),
    )
    val sampler = new Sampler(spark, r, samples = 100)
    val est = sampler.estimateJoin(Set(0, 1, 2), 0 until 3)
    assert(est.card == 0.0)
  }

  test("estimates are memoized per (attrs, relations) key") {
    val g = TestHelpers.randomGraph(nodes = 10, edges = 20, seed = 24)
    val q = QueryLibrary.q1
    val sampler = new Sampler(spark, rels(q, g), samples = 50)
    val t0 = sampler.totalWallSec
    val e1 = sampler.estimateJoin(Set(0, 1, 2), q.atoms.indices)
    val t1 = sampler.totalWallSec
    val e2 = sampler.estimateJoin(Set(0, 1, 2), q.atoms.indices)
    val t2 = sampler.totalWallSec
    assert(e1 == e2)
    assert(t1 > t0 && t2 == t1) // second call did no work
  }

  test("beta is positive after sampling") {
    val g = TestHelpers.randomGraph(nodes = 12, edges = 30, seed = 25)
    val q = QueryLibrary.q1
    val sampler = new Sampler(spark, rels(q, g), samples = 50)
    sampler.estimateJoin(Set(0, 1, 2), q.atoms.indices)
    assert(sampler.betaRaw > 0)
  }

  test("anchor is the attribute shared by the most relations") {
    val g = TestHelpers.randomGraph(nodes = 10, edges = 20, seed = 26)
    val q = QueryLibrary.q5 // b has degree 4 (atoms 1,2,6,7 contain b)
    val sampler = new Sampler(spark, rels(q, g), samples = 20)
    val est = sampler.estimateJoin(q.edges.flatten.toSet, q.atoms.indices)
    val bId = q.attrId("b")
    assert(est.anchor == bId, s"anchor ${est.anchor}, expected b=$bId")
  }

  test("single-attribute estimate equals |val(A)|") {
    val g = TestHelpers.randomGraph(nodes = 10, edges = 25, seed = 27)
    val q = QueryLibrary.q1
    val sampler = new Sampler(spark, rels(q, g), samples = 10000)
    val est = sampler.estimateJoin(Set(q.attrId("a")), q.atoms.indices)
    assert(est.card == est.valA.toDouble)
  }
}
