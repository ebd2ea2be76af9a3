package repro.core.ghd

/** α-acyclicity (the property GYO reduction decides) and join trees over a
  * set of bags (attribute sets). By Bernstein–Goodman, a hypergraph is
  * α-acyclic iff a maximum-weight spanning tree of its bags' intersection
  * graph is a join tree. Every other test here counts edges of such a
  * tree: in a forest, k nodes are joined by at most k − 1 edges, with
  * equality iff they are connected.
  */
object GYO {

  /** True iff the hypergraph whose hyperedges are `bags` is α-acyclic. */
  def isAcyclic(bags: Seq[Set[Int]]): Boolean = {
    val bs = bags.toIndexedSeq
    hasRunningIntersection(bs, joinTree(bs))
  }

  /** Builds a join tree over the bags via a maximum-weight spanning tree on
    * pairwise shared-attribute counts (Bernstein–Goodman: for an acyclic
    * hypergraph this yields a tree with the running-intersection property).
    * Pairs sharing no attribute weigh 0, so they only link components.
    *
    * @return adjacency as a set of undirected (i, j) bag-index pairs.
    */
  def joinTree(bags: IndexedSeq[Set[Int]]): Set[(Int, Int)] = {
    val n = bags.length
    if (n <= 1) return Set.empty
    val parent = Array.tabulate(n)(identity)
    def find(x: Int): Int = { var r = x; while (parent(r) != r) r = parent(r); parent(x) = r; r }
    val candidates = for {
      i <- 0 until n; j <- i + 1 until n
      w = bags(i).intersect(bags(j)).size
    } yield (w, i, j)
    var edges = Set.empty[(Int, Int)]
    for ((_, i, j) <- candidates.sortBy(-_._1)) {
      val (ri, rj) = (find(i), find(j))
      if (ri != rj) { parent(ri) = rj; edges += ((i, j)) }
    }
    edges
  }

  /** True iff, in the forest given by `edges` over `bags`, every attribute's
    * occurrence set induces a connected subtree (running intersection).
    * Each attribute's holders are joined by at most (occurrences − 1) edges,
    * so the sums agree iff every attribute's holders are connected.
    *
    * `edges` must be a forest: no cycles and no pair listed both ways.
    */
  def hasRunningIntersection(bags: IndexedSeq[Set[Int]], edges: Set[(Int, Int)]): Boolean =
    edges.iterator.map { case (i, j) => bags(i).intersect(bags(j)).size }.sum ==
      bags.map(_.size).sum - bags.flatten.toSet.size

  /** True iff the node subset `keep` is connected by the forest edges between
    * its own nodes; singletons and the empty set are connected.
    *
    * `edges` must be a forest: no cycles and no pair listed both ways.
    */
  def inducesConnectedSubtree(keep: Set[Int], edges: Set[(Int, Int)]): Boolean =
    keep.size <= 1 || edges.count { case (i, j) => keep(i) && keep(j) } == keep.size - 1
}
