package repro.core.ghd

/** GYO (Graham / Yu–Ozsoyoglu) machinery for hypergraph acyclicity and
  * join-tree construction over a set of bags (attribute sets).
  */
object GYO {

  /** True iff the hypergraph whose hyperedges are `bags` is α-acyclic:
    * repeated ear removal (drop vertices unique to one bag; drop bags
    * contained in another bag) reduces it to at most one bag.
    */
  def isAcyclic(bags: Seq[Set[Int]]): Boolean = {
    var cur = bags.toVector.filter(_.nonEmpty)
    var changed = true
    while (changed && cur.length > 1) {
      changed = false
      // Drop bags contained in some other bag (one at a time to keep
      // duplicate bags from annihilating each other).
      val sub = cur.indices.find(i => cur.indices.exists(j => j != i && cur(i).subsetOf(cur(j))))
      sub match {
        case Some(i) =>
          cur = cur.patch(i, Nil, 1); changed = true
        case None =>
          // Drop vertices that occur in exactly one bag.
          val counts = cur.flatten.groupBy(identity).view.mapValues(_.size).toMap
          val lonely = counts.collect { case (v, 1) => v }.toSet
          if (lonely.nonEmpty) {
            cur = cur.map(_.diff(lonely)).filter(_.nonEmpty)
            changed = true
          }
      }
    }
    cur.length <= 1
  }

  /** Builds a join tree over the bags via a maximum-weight spanning forest
    * on pairwise shared-attribute counts (Bernstein–Goodman: for an acyclic
    * hypergraph this yields a tree with the running-intersection property).
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
      if w > 0
    } yield (w, i, j)
    var edges = Set.empty[(Int, Int)]
    for ((_, i, j) <- candidates.sortBy(-_._1)) {
      val (ri, rj) = (find(i), find(j))
      if (ri != rj) { parent(ri) = rj; edges += ((i, j)) }
    }
    edges
  }

  /** True iff, in the tree given by `edges` over `bags`, every attribute's
    * occurrence set induces a connected subtree (running intersection).
    */
  def hasRunningIntersection(bags: IndexedSeq[Set[Int]], edges: Set[(Int, Int)]): Boolean =
    bags.flatten.toSet.forall(a => inducesConnectedSubtree(bags.indices.filter(bags(_).contains(a)).toSet, edges))

  /** True iff the node subset `keep` is connected by the tree edges between
    * its own nodes; singletons and the empty set are connected.
    */
  def inducesConnectedSubtree(keep: Set[Int], edges: Set[(Int, Int)]): Boolean = {
    if (keep.size <= 1) return true
    val seen  = collection.mutable.Set(keep.head)
    val stack = collection.mutable.Stack(keep.head)
    while (stack.nonEmpty) {
      val u = stack.pop()
      for ((a, b) <- edges) {
        if (a == u && keep.contains(b) && seen.add(b)) stack.push(b)
        if (b == u && keep.contains(a) && seen.add(a)) stack.push(a)
      }
    }
    seen.size == keep.size
  }
}
