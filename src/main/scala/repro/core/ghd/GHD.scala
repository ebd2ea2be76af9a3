package repro.core.ghd

import repro.core.hypergraph.Hypergraph

/** One hypernode of the hypertree T: a group of atoms of the query, whose
  * join is the node's candidate pre-computed relation (Sec. III-A).
  *
  * @param atomIdxs indices into the query's atom vector (λ(v) in the paper)
  * @param attrs    union of the group's attribute ids (the bag)
  * @param width    fractional edge cover number ρ*(attrs, λ(v) schemas) —
  *                 the AGM exponent bounding |⋈ λ(v)| by |R_max|^width
  */
final case class HyperNode(atomIdxs: Vector[Int], attrs: Set[Int], width: Double)

/** A hypertree decomposition: hypernodes plus join-tree adjacency.
  *
  * Every atom belongs to exactly one hypernode, and the edges span all nodes
  * (also of a disconnected query) with running intersection, so pre-computing
  * any subset of node joins leaves an (almost) acyclic residual query.
  */
final case class HyperTree(query: Hypergraph, nodes: Vector[HyperNode], edges: Set[(Int, Int)]) {
  /** fhw-style score: the maximum node width. */
  def maxWidth: Double = nodes.map(_.width).max

  /** True iff the given node subset induces a connected subtree (used by the
    * optimizer's valid-traversal-order check; singletons/empty are connected).
    */
  def inducesConnectedSubtree(keep: Set[Int]): Boolean = GYO.inducesConnectedSubtree(keep, edges)

  override def toString: String =
    nodes.zipWithIndex.map { case (n, i) =>
      s"v$i{${n.atomIdxs.map(query.atoms(_).name).mkString(",")}; " +
        s"attrs=${n.attrs.toSeq.sorted.map(query.attributes).mkString("")}; w=${n.width}}"
    }.mkString(" | ") + s" edges=$edges"
}

/** Exhaustive GHD search over set partitions of the query's atoms
  * (Sec. III-A): keep partitions whose bags form an α-acyclic hypergraph
  * (their max-weight join tree has running intersection), score by (max
  * node width, max node arity, node count), minimal first — i.e. minimize
  * the worst pre-computed relation's AGM bound, then prefer small bags and
  * fine granularity.
  *
  * m ≤ 10 atoms in the paper's workload ⇒ Bell(10) ≈ 1.2e5 partitions;
  * per-group widths are memoized so the search runs in well under a second.
  */
object GHD {

  def decompose(q: Hypergraph): HyperTree = {
    val m = q.numAtoms
    val widthCache = collection.mutable.Map.empty[Vector[Int], Double]

    def groupWidth(group: Vector[Int]): Double =
      widthCache.getOrElseUpdate(group, {
        val attrs = group.flatMap(q.edges).toSet
        Simplex.fractionalEdgeCover(attrs, group.map(q.edges))
      })

    // (max width, max arity, width sum, node count)
    type Score = (Double, Int, Double, Int)
    var best: Option[(Score, Vector[Vector[Int]], Set[(Int, Int)])] = None

    // Score order: max width (the paper's criterion — bound the worst
    // pre-computed relation), then max bag arity, then the SUM of widths
    // (prefer e.g. a width-1.5 triangle bag over a width-2 chordless cycle
    // when the maxima tie), then node count.
    def better(score: Score): Boolean = best match {
      case None => true
      case Some(((w, arity, sumW, nb), _, _)) =>
        val (cw, ca, cs, cn) = score
        cw < w - 1e-9 ||
          (cw < w + 1e-9 && (ca < arity ||
            (ca == arity && (cs < sumW - 1e-9 ||
              (cs < sumW + 1e-9 && cn < nb)))))
    }

    // Enumerate set partitions: atom i joins an existing group or opens one.
    // A complete partition that would beat the best is kept iff its bags'
    // max-weight spanning tree has running intersection.
    def rec(i: Int, groups: Vector[Vector[Int]]): Unit = {
      if (i == m) {
        val bags   = groups.map(_.flatMap(q.edges).toSet)
        val widths = groups.map(groupWidth)
        val score  = (widths.max, bags.map(_.size).max, widths.sum, groups.length)
        if (better(score)) {
          val edges = GYO.joinTree(bags)
          if (GYO.hasRunningIntersection(bags, edges)) best = Some((score, groups, edges))
        }
      } else {
        // Prune: a partial partition whose widths already exceed the best
        // known maximum cannot win.
        val partialW = if (groups.isEmpty) 0.0 else groups.map(groupWidth).max
        val prune = best.exists { case ((w, _, _, _), _, _) => partialW > w + 1e-9 }
        if (!prune) {
          groups.indices.foreach { g =>
            rec(i + 1, groups.updated(g, groups(g) :+ i))
          }
          rec(i + 1, groups :+ Vector(i))
        }
      }
    }
    rec(0, Vector.empty)

    val (_, groups, edges) = best.getOrElse(throw new IllegalStateException(
      s"no acyclic decomposition found for $q — the trivial single bag is always acyclic"))
    val nodes = groups.map { g =>
      HyperNode(g, g.flatMap(q.edges).toSet, groupWidth(g))
    }
    HyperTree(q, nodes, edges)
  }
}
