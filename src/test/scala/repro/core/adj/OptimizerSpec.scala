package repro.core.adj

import repro.SparkSpec
import repro.core.TestHelpers
import repro.core.ghd.GHD
import repro.core.hcube.Rel
import repro.core.hypergraph.{Hypergraph, QueryLibrary}
import repro.core.sampling.Sampler

class OptimizerSpec extends SparkSpec {

  private def optimizerFor(q: Hypergraph) = {
    val g = TestHelpers.randomGraph(nodes = 16, edges = 40, seed = 51)
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
    val queries = Seq("Q2", "Q4", "Q5", "Q6").map(QueryLibrary.all) :+ TestHelpers.twoFourCycles
    for (q <- queries) {
      val (_, tree, opt) = optimizerFor(q)
      val plan = opt.optimize()
      assert(plan.traversal.sorted == tree.nodes.indices.toVector, s"$q: $plan")
      plan.traversal.indices.foreach { i =>
        assert(tree.inducesConnectedSubtree(plan.traversal.take(i + 1).toSet),
          s"$q: prefix $i of ${plan.traversal} disconnected")
      }
    }
  }

  test("attribute order covers all attributes, grouped by traversal") {
    for (qn <- Seq("Q1", "Q2", "Q4", "Q6")) {
      val (q, tree, opt) = optimizerFor(QueryLibrary.all(qn))
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
      val (_, tree, opt) = optimizerFor(QueryLibrary.all(qn))
      val plan = opt.optimize()
      plan.preCompute.foreach { v =>
        assert(tree.nodes(v).atomIdxs.length > 1, s"$qn pre-computes single atom: $plan")
      }
    }
  }

  test("single-node trees yield the trivial traversal") {
    for (qn <- Seq("Q1", "Q3")) {
      val (_, tree, opt) = optimizerFor(QueryLibrary.all(qn))
      val plan = opt.optimize()
      assert(tree.nodes.length == 1)
      assert(plan.traversal == Vector(0))
    }
  }

  test("estimated cost is finite and non-negative") {
    for (qn <- Seq("Q1", "Q4", "Q6")) {
      val (_, _, opt) = optimizerFor(QueryLibrary.all(qn))
      val plan = opt.optimize()
      assert(plan.estimatedSec >= 0 && java.lang.Double.isFinite(plan.estimatedSec))
    }
  }

  test("attributeOrder puts higher-degree attributes first within a node") {
    val q = QueryLibrary.q5
    val tree = GHD.decompose(q)
    for (first <- tree.nodes.indices) {
      val traversal = first +: tree.nodes.indices.filter(_ != first)
      val ord = Optimizer.attributeOrder(tree, traversal)
      // Within the first node, degrees must be non-increasing.
      val prefix = ord.takeWhile(tree.nodes(first).attrs.contains)
      val degs = prefix.map(a => q.atomsWith(a).length).toSeq
      assert(prefix.length == tree.nodes(first).attrs.size)
      assert(degs == degs.sortBy(-(_: Int)), s"degrees $degs not non-increasing")
    }
  }
}
