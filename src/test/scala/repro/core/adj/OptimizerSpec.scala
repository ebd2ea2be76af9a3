package repro.core.adj

import repro.SparkSpec
import repro.core.TestHelpers
import repro.core.ghd.GHD
import repro.core.hcube.Rel
import repro.core.hypergraph.QueryLibrary
import repro.core.sampling.Sampler

class OptimizerSpec extends SparkSpec {

  private def optimizerFor(qname: String, seed: Long = 51) = {
    val q = QueryLibrary.all(qname)
    val g = TestHelpers.randomGraph(nodes = 16, edges = 40, seed = seed)
    val rdd = spark.sparkContext.parallelize(g, 4)
    val rels = q.atoms.indices.map { i =>
      Rel(q.atoms(i).name, q.atoms(i).attrs.map(q.attrId), rdd, g.length.toLong)
    }.toIndexedSeq
    val tree = GHD.decompose(q)
    val model = new CostModel(spark, q, tree, new Sampler(spark, rels, samples = 40),
      rels.map(_.size), numServers = 8, cubeBudget = 8)
    (q, tree, new Optimizer(model))
  }

  test("plan traversal is a valid connected traversal of the hypertree") {
    for (qn <- Seq("Q2", "Q4", "Q5", "Q6")) {
      val (_, tree, opt) = optimizerFor(qn)
      val plan = opt.optimize()
      assert(plan.traversal.sorted == tree.nodes.indices.toVector, s"$qn: $plan")
      plan.traversal.indices.foreach { i =>
        assert(tree.inducesConnectedSubtree(plan.traversal.take(i + 1).toSet),
          s"$qn: prefix $i of ${plan.traversal} disconnected")
      }
    }
  }

  test("attribute order covers all attributes, grouped by traversal") {
    for (qn <- Seq("Q1", "Q2", "Q4", "Q6")) {
      val (q, tree, opt) = optimizerFor(qn)
      val plan = opt.optimize()
      assert(plan.ord.sorted.toSeq == (0 until q.numAttrs), s"$qn: ${plan.ord.toSeq}")
      // Every attribute of traversal prefix k appears before attrs exclusive
      // to later nodes (the paper's valid-order condition).
      val seen = collection.mutable.Set.empty[Int]
      plan.traversal.foreach { v =>
        val fresh = tree.nodes(v).attrs.diff(seen.toSet)
        val positions = fresh.map(a => plan.ord.indexOf(a))
        val laterAttrs = plan.traversal.dropWhile(_ != v).drop(1)
          .flatMap(u => tree.nodes(u).attrs).toSet.diff(seen.toSet ++ fresh)
        laterAttrs.foreach { la =>
          assert(positions.forall(_ < plan.ord.indexOf(la)),
            s"$qn: attr $la of a later node precedes node $v's attrs in ${plan.ord.toSeq}")
        }
        seen ++= tree.nodes(v).attrs
      }
    }
  }

  test("pre-computed nodes are always multi-atom bags") {
    for (qn <- Seq("Q2", "Q4", "Q5", "Q6")) {
      val (_, tree, opt) = optimizerFor(qn)
      val plan = opt.optimize()
      plan.preCompute.foreach { v =>
        assert(tree.nodes(v).atomIdxs.length > 1, s"$qn pre-computes single atom: $plan")
      }
    }
  }

  test("single-node trees yield the trivial traversal") {
    for (qn <- Seq("Q1", "Q3")) {
      val (_, tree, opt) = optimizerFor(qn)
      val plan = opt.optimize()
      assert(tree.nodes.length == 1)
      assert(plan.traversal == Vector(0))
    }
  }

  test("estimated cost is finite and non-negative") {
    for (qn <- Seq("Q1", "Q4", "Q6")) {
      val (_, _, opt) = optimizerFor(qn)
      val plan = opt.optimize()
      assert(plan.estimatedSec >= 0 && java.lang.Double.isFinite(plan.estimatedSec))
    }
  }

  test("attributeOrder puts higher-degree attributes first within a node") {
    val (q, tree, opt) = optimizerFor("Q5")
    val traversal = opt.optimize().traversal
    val ord = opt.attributeOrder(traversal)
    // Within the first node, degrees must be non-increasing.
    val firstAttrs = tree.nodes(traversal.head).attrs
    val prefix = ord.takeWhile(firstAttrs.contains)
    val degs = prefix.map(a => q.atomsWith(a).length).toSeq
    assert(degs == degs.sortBy(-(_: Int)), s"degrees $degs not non-increasing")
  }
}
