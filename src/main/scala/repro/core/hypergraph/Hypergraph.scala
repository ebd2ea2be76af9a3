package repro.core.hypergraph

/** An atom of a natural join query: a named relation together with the
  * attribute names it binds, e.g. `R1(a,b)`.
  *
  * Attribute names are global: two atoms sharing the name `b` join on it.
  */
final case class Atom(name: String, attrs: Vector[String]) {
  require(attrs.distinct == attrs, s"atom $name repeats an attribute: $attrs")
  override def toString: String = s"$name(${attrs.mkString(",")})"
}

/** The hypergraph H = (V, E) of a natural join query (Sec. II of the paper):
  * hypernodes are attributes, hyperedges are atom schemas.
  *
  * Attributes are also exposed as dense integer ids (position in `attributes`)
  * because the execution layer works on positional Long tuples.
  */
final case class Hypergraph(atoms: Vector[Atom]) {
  require(atoms.nonEmpty, "a query needs at least one atom")

  /** All distinct attribute names, in first-appearance order. */
  val attributes: Vector[String] = atoms.flatMap(_.attrs).distinct

  /** attribute name -> dense id. */
  val attrId: Map[String, Int] = attributes.zipWithIndex.toMap

  /** One hyperedge per atom, as a set of attribute ids. */
  val edges: Vector[Set[Int]] = atoms.map(_.attrs.map(attrId).toSet)

  def numAttrs: Int = attributes.length
  def numAtoms: Int = atoms.length

  /** Atom indices whose schema contains attribute id `a`. */
  def atomsWith(a: Int): Vector[Int] =
    edges.zipWithIndex.collect { case (e, i) if e.contains(a) => i }

  override def toString: String = atoms.mkString(" ⋈ ")
}

/** The subgraph-query workload of Sec. VII-A, over a single edge relation.
  *
  * Every atom references the logical relation name given per atom (`R1`,…),
  * but in the experiments each atom is bound to a copy of the same graph.
  */
object QueryLibrary {
  private def atom(n: Int, a: String, b: String) = Atom(s"R$n", Vector(a, b))

  /** Q1: triangle. */
  val q1: Hypergraph = Hypergraph(Vector(
    atom(1, "a", "b"), atom(2, "b", "c"), atom(3, "a", "c")))

  /** Q2: 4-cycle with a chord. */
  val q2: Hypergraph = Hypergraph(Vector(
    atom(1, "a", "b"), atom(2, "b", "c"), atom(3, "c", "d"),
    atom(4, "d", "a"), atom(5, "a", "c")))

  /** Q3: 5-clique (all 10 pairs over {a..e}). */
  val q3: Hypergraph = Hypergraph(Vector(
    atom(1, "a", "b"), atom(2, "b", "c"), atom(3, "c", "d"),
    atom(4, "d", "e"), atom(5, "e", "a"), atom(6, "b", "d"),
    atom(7, "b", "e"), atom(8, "c", "a"), atom(9, "c", "e"),
    atom(10, "a", "d")))

  /** Q4: 5-cycle plus chord (b,e). */
  val q4: Hypergraph = Hypergraph(Vector(
    atom(1, "a", "b"), atom(2, "b", "c"), atom(3, "c", "d"),
    atom(4, "d", "e"), atom(5, "e", "a"), atom(6, "b", "e")))

  /** Q5: Q4 plus chord (b,d). */
  val q5: Hypergraph = Hypergraph(Vector(
    atom(1, "a", "b"), atom(2, "b", "c"), atom(3, "c", "d"),
    atom(4, "d", "e"), atom(5, "e", "a"), atom(6, "b", "e"),
    atom(7, "b", "d")))

  /** Q6: Q5 plus chord (c,e). */
  val q6: Hypergraph = Hypergraph(Vector(
    atom(1, "a", "b"), atom(2, "b", "c"), atom(3, "c", "d"),
    atom(4, "d", "e"), atom(5, "e", "a"), atom(6, "b", "e"),
    atom(7, "b", "d"), atom(8, "c", "e")))

  /** Q7–Q11: the "easy" queries the paper omits from its result tables —
    * paths and stars with 3–5 nodes, kept for test coverage.
    */
  val q7: Hypergraph  = Hypergraph(Vector(atom(1, "a", "b"), atom(2, "b", "c")))
  val q8: Hypergraph  = Hypergraph(Vector(
    atom(1, "a", "b"), atom(2, "b", "c"), atom(3, "c", "d")))
  val q9: Hypergraph  = Hypergraph(Vector(
    atom(1, "a", "b"), atom(2, "a", "c"), atom(3, "a", "d")))
  val q10: Hypergraph = Hypergraph(Vector(
    atom(1, "a", "b"), atom(2, "b", "c"), atom(3, "c", "d"), atom(4, "d", "e")))
  val q11: Hypergraph = Hypergraph(Vector(
    atom(1, "a", "b"), atom(2, "a", "c"), atom(3, "a", "d"), atom(4, "a", "e")))

  /** The representative hard queries reported in the paper's tables. */
  val reported: Map[String, Hypergraph] =
    Map("Q1" -> q1, "Q2" -> q2, "Q3" -> q3, "Q4" -> q4, "Q5" -> q5, "Q6" -> q6)

  val all: Map[String, Hypergraph] = reported ++
    Map("Q7" -> q7, "Q8" -> q8, "Q9" -> q9, "Q10" -> q10, "Q11" -> q11)
}
