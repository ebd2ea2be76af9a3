package repro.core.adj

import repro.SparkSpec
import repro.core.TestHelpers
import repro.core.ghd.GHD
import repro.core.hcube.Rel
import repro.core.hypergraph.QueryLibrary
import repro.core.sampling.Sampler

class CostModelSpec extends SparkSpec {

  private def model(qname: String, seed: Long = 41, edges: Int = 40) = {
    val q = QueryLibrary.all(qname)
    val g = TestHelpers.randomGraph(nodes = 16, edges = edges, seed = seed)
    val rdd = spark.sparkContext.parallelize(g, 4)
    val rels = q.atoms.indices.map { i =>
      Rel(q.atoms(i).name, q.atoms(i).attrs.map(q.attrId), rdd, g.length.toLong)
    }.toIndexedSeq
    val tree = GHD.decompose(q)
    new CostModel(spark, q, tree, new Sampler(spark, rels, samples = 40),
      rels.map(_.size), numServers = 8, cubeBudget = 8)
  }

  test("alpha calibration is positive and cached") {
    val a1 = CostModel.measuredAlpha(spark)
    val a2 = CostModel.measuredAlpha(spark)
    assert(a1 > 0 && a1 == a2)
  }

  test("beta for pre-computed tries is positive and cached") {
    val b1 = CostModel.measuredBetaPre()
    assert(b1 > 0 && b1 == CostModel.measuredBetaPre())
  }

  test("costC of the original query is positive and scales with shuffled tuples") {
    val m = model("Q4")
    val c = m.costC(Set.empty)
    assert(c > 0)
    assert(math.abs(c - m.shares(Set.empty).shuffledTuples / m.alpha) < 1e-9)
  }

  test("rewrittenRels swaps a pre-computed bag in for its atoms") {
    val m = model("Q4")
    val tree = m.tree
    val multi = tree.nodes.indices.find(tree.nodes(_).atomIdxs.length > 1).get
    val without = m.rewrittenRels(Set.empty)
    val withBag = m.rewrittenRels(Set(multi))
    assert(without.length == m.query.numAtoms)
    assert(withBag.length == m.query.numAtoms - tree.nodes(multi).atomIdxs.length + 1)
    assert(withBag.exists(_._1 == tree.nodes(multi).attrs))
  }

  test("costE grows with the predecessors' binding count") {
    val m = model("Q4")
    val tree = m.tree
    assert(tree.nodes.length >= 2)
    val cheap = m.costE(Set.empty, preComputed = false)
    val costly = m.costE(tree.nodes.indices.toSet - 0, preComputed = false)
    assert(cheap <= costly + 1e-12)
  }

  test("costE with pre-computation uses the faster beta") {
    val m = model("Q4")
    val before = m.tree.nodes.indices.toSet - 0
    val raw = m.costE(before, preComputed = false)
    val pre = m.costE(before, preComputed = true)
    // betaPre (binary probes) is much larger than betaRaw on this scale.
    if (m.betaPre > m.betaRaw) assert(pre <= raw)
  }

  test("costM is zero for single-atom nodes and positive otherwise") {
    val m = model("Q4")
    m.tree.nodes.indices.foreach { v =>
      val c = m.costM(v)
      if (m.tree.nodes(v).atomIdxs.length == 1) assert(c == 0.0)
      else assert(c > 0.0)
    }
  }

  test("bagSize of a single-atom node is the relation size") {
    val m = model("Q4")
    m.tree.nodes.indices.foreach { v =>
      if (m.tree.nodes(v).atomIdxs.length == 1) {
        assert(m.bagSize(v) == m.query.atoms.length.toDouble ||
               m.bagSize(v) > 0) // size of the single relation
      }
    }
  }

  test("shares of a rewritten query respect the cube budget") {
    val m = model("Q5")
    val all = m.tree.nodes.indices.filter(m.tree.nodes(_).atomIdxs.length > 1).toSet
    for (c <- Seq(Set.empty[Int], all)) {
      assert(m.shares(c).cubes <= 8)
    }
  }
}
