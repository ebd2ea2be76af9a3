package repro.core.adj

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
  * `cost_M + cost_C + cost_E` against `cost_C + cost_E`, and only considers
  * nodes whose removal leaves the remaining nodes connected in the
  * hypertree, so every produced order is a valid traversal (Sec. III-A).
  */
final class Optimizer(model: CostModel) {

  private val tree  = model.tree
  private val query = model.query

  def optimize(): Plan = {
    var remaining = tree.nodes.indices.toSet
    var c         = Set.empty[Int]
    var reversed  = Vector.empty[Int] // reversed(0) is traversed last
    var accE      = 0.0
    var accM      = 0.0

    while (remaining.nonEmpty) {
      var bestV    = -1
      var bestPre  = false
      var bestCost = Double.PositiveInfinity
      var bestE    = 0.0
      var bestM    = 0.0
      for (v <- remaining.toSeq.sorted) {
        if (tree.inducesConnectedSubtree(remaining - v)) {
          val before = remaining - v
          // Option 1: do not pre-compute v.
          val e1 = model.costE(before, preComputed = false)
          val cost1 = accM + accE + e1 + model.costC(c)
          if (cost1 < bestCost) {
            bestCost = cost1; bestV = v; bestPre = false; bestE = e1; bestM = 0.0
          }
          // Option 2: pre-compute v (only meaningful for multi-atom bags).
          if (tree.nodes(v).atomIdxs.length > 1) {
            val m  = model.costM(v)
            val e2 = model.costE(before, preComputed = true)
            val cost2 = accM + m + accE + e2 + model.costC(c + v)
            if (cost2 < bestCost) {
              bestCost = cost2; bestV = v; bestPre = true; bestE = e2; bestM = m
            }
          }
        }
      }
      require(bestV >= 0, s"no valid next node from $remaining — tree disconnected?")
      if (bestPre) { c += bestV; accM += bestM }
      accE += bestE
      reversed :+= bestV
      remaining -= bestV
    }

    val traversal = reversed.reverse
    val ord       = attributeOrder(traversal)
    Plan(c, traversal, ord, accM + accE + model.costC(c))
  }

  /** Concatenates each traversed node's not-yet-placed attributes; within a
    * node, higher-degree (more tightly constrained) attributes come first,
    * as [11] prescribes for intra-node ordering.
    */
  def attributeOrder(traversal: Seq[Int]): Array[Int] = {
    val placed = collection.mutable.LinkedHashSet.empty[Int]
    traversal.foreach { v =>
      val fresh = tree.nodes(v).attrs.diff(placed.toSet).toSeq
        .sortBy(a => (-query.atomsWith(a).length, a))
      placed ++= fresh
    }
    placed.toArray
  }
}

object Optimizer {

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
