package repro.core

import repro.core.hypergraph.{Atom, Hypergraph}

/** Shared helpers for the unit suites: tiny graph generators and a naive
  * backtracking join evaluator used as ground truth for local (non-Spark)
  * tests. Spark-level suites use the DuckDB oracle instead.
  */
object TestHelpers {

  /** Deterministic random symmetric graph: `edges` draws over `nodes`
    * vertices, self-loops dropped, both directions added, deduplicated.
    */
  def randomGraph(nodes: Int, edges: Int, seed: Long): Vector[Array[Long]] = {
    val rnd = new scala.util.Random(seed)
    val set = collection.mutable.Set.empty[(Long, Long)]
    var i = 0
    while (i < edges) {
      val a = rnd.nextInt(nodes).toLong + 1
      val b = rnd.nextInt(nodes).toLong + 1
      if (a != b) { set += ((a, b)); set += ((b, a)) }
      i += 1
    }
    set.toVector.sorted.map { case (a, b) => Array(a, b) }
  }

  /** A deterministic skewed graph (hub-heavy) for skew-sensitive tests. */
  def skewedGraph(nodes: Int, edges: Int, seed: Long, alpha: Double = 0.9): Vector[Array[Long]] = {
    val rnd = new scala.util.Random(seed)
    def draw(): Long = {
      val u = math.max(rnd.nextDouble(), 1e-12)
      math.min(nodes.toLong, math.max(1L, math.pow(1.0 / u, 1.0 / alpha).toLong))
    }
    val set = collection.mutable.Set.empty[(Long, Long)]
    var i = 0
    while (i < edges) {
      val a = draw(); val b = draw()
      if (a != b) { set += ((a, b)); set += ((b, a)) }
      i += 1
    }
    set.toVector.sorted.map { case (a, b) => Array(a, b) }
  }

  /** Two 4-cycles that share no attribute: R1–R4 over (a,b,c,d) and R5–R8
    * over (e,f,g,h). Their hypergraph has two components.
    */
  val twoFourCycles: Hypergraph = Hypergraph(
    Seq("abcd", "efgh").flatMap(c => c.indices.map(i => Vector(c(i), c((i + 1) % 4)).map(_.toString)))
      .zipWithIndex.map { case (attrs, i) => Atom(s"R${i + 1}", attrs) }.toVector)

  /** Ground-truth natural join by backtracking over atoms (exponential —
    * only for tiny inputs). Result tuples are in attribute-id order.
    */
  def naiveJoin(query: Hypergraph, data: IndexedSeq[Seq[Array[Long]]]): Set[Vector[Long]] = {
    require(data.length == query.numAtoms)
    def rec(i: Int, binding: Map[Int, Long]): Iterator[Map[Int, Long]] =
      if (i == query.numAtoms) Iterator.single(binding)
      else {
        val attrs = query.atoms(i).attrs.map(query.attrId)
        data(i).iterator.flatMap { t =>
          var ok = true
          var b  = binding
          var k  = 0
          while (k < attrs.length && ok) {
            b.get(attrs(k)) match {
              case Some(v) => if (v != t(k)) ok = false
              case None    => b += (attrs(k) -> t(k))
            }
            k += 1
          }
          if (ok) rec(i + 1, b) else Iterator.empty
        }
      }
    rec(0, Map.empty).map(b => (0 until query.numAttrs).map(b).toVector).toSet
  }

  /** Binds every atom of a query to the same local edge list. */
  def bindGraph(query: Hypergraph, graph: Seq[Array[Long]]): IndexedSeq[Seq[Array[Long]]] =
    IndexedSeq.fill(query.numAtoms)(graph)
}
