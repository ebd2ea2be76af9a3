package repro.core.adj

import repro.core.ghd.HyperTree

/** The query plan ADJ settles on: which hypertree nodes to pre-compute, the
  * hypernode traversal order, and the induced Leapfrog attribute order.
  *
  * @param preCompute   hypertree node indices whose bag joins are materialized
  * @param traversal    hypernode visit order (forward)
  * @param ord          attribute ids in Leapfrog order
  * @param estimatedSec model-predicted total cost
  */
final case class Plan(preCompute: Set[Int], traversal: Vector[Int], ord: Array[Int], estimatedSec: Double) {
  override def toString: String =
    s"Plan(pre=${preCompute.toSeq.sorted.mkString("{", ",", "}")}, " +
      s"traversal=${traversal.mkString("<")}, ord=${ord.mkString(",")}, est=${f"$estimatedSec%.2f"}s)"
}

/** Algorithm 2: greedy construction of the traversal order in reverse.
  *
  * Each round picks the node to traverse *last* among the remaining ones
  * (the last Leapfrog steps dominate complex-join cost — Fig. 6), choosing
  * between pre-computing its bag or not by comparing
  * `cost_M + cost_C + cost_E` against `cost_C + cost_E`. It only considers
  * leaves of the remaining subtree of the hypertree, which a tree always
  * has, so every produced order is a valid traversal (Sec. III-A).
  */
final class Optimizer(model: CostModel) {

  def optimize(): Plan = {
    val tree      = model.tree
    var remaining = tree.nodes.indices.toSet
    var c         = Set.empty[Int]
    var reversed  = Vector.empty[Int] // reversed(0) is traversed last
    var accE      = 0.0
    var accM      = 0.0

    while (remaining.nonEmpty) {
      // (cost, v, pre-computed?, cost_E, cost_M) for every node whose removal
      // leaves the rest connected, "not pre-computed" first; only a
      // multi-atom bag can be pre-computed. `minBy` keeps the first minimum.
      val candidates = for {
        v   <- remaining.toSeq.sorted if tree.inducesConnectedSubtree(remaining - v)
        pre <- if (tree.nodes(v).atomIdxs.length > 1) Seq(false, true) else Seq(false)
      } yield {
        val e = model.costE(remaining - v, preComputed = pre)
        val m = if (pre) model.costM(v) else 0.0
        (accM + m + accE + e + model.costC(if (pre) c + v else c), v, pre, e, m)
      }
      val (_, v, pre, e, m) = candidates.minBy(_._1)
      if (pre) { c += v; accM += m }
      accE += e
      reversed :+= v
      remaining -= v
    }

    val traversal = reversed.reverse
    val ord       = Optimizer.attributeOrder(tree, traversal)
    Plan(c, traversal, ord, accM + accE + model.costC(c))
  }
}

object Optimizer {

  /** Concatenates each traversed node's not-yet-placed attributes; within a
    * node, higher-degree (more tightly constrained) attributes come first,
    * as [11] prescribes for intra-node ordering.
    */
  def attributeOrder(tree: HyperTree, traversal: Seq[Int]): Array[Int] = {
    val placed = collection.mutable.LinkedHashSet.empty[Int]
    traversal.foreach { v =>
      val fresh = tree.nodes(v).attrs.diff(placed.toSet).toSeq
        .sortBy(a => (-tree.query.atomsWith(a).length, a))
      placed ++= fresh
    }
    placed.toArray
  }

  /** A *connected* attribute order over the given schemas: start at the
    * highest-degree attribute, then repeatedly append the attribute sharing
    * schemas with the most already-placed attributes (ties: degree, id).
    * Every prefix is then constrained by some relation, which keeps
    * Leapfrog's intermediate levels from degenerating into cross products —
    * used for the bag sub-joins, whose good order generally differs from the
    * full query's.
    */
  def connectedOrder(schemas: Seq[Set[Int]]): Array[Int] = {
    val attrs = schemas.flatten.distinct.sorted
    def degree(a: Int): Int = schemas.count(_.contains(a))
    val placed = collection.mutable.LinkedHashSet.empty[Int]
    while (placed.size < attrs.length) {
      val next = attrs.filterNot(placed.contains).maxBy { a =>
        val links = schemas.count(s => s.contains(a) && s.exists(placed.contains))
        (if (placed.isEmpty) 0 else links, degree(a), -a)
      }
      placed += next
    }
    placed.toArray
  }
}
