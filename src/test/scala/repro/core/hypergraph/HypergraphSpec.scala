package repro.core.hypergraph

import org.scalatest.funsuite.AnyFunSuite

class HypergraphSpec extends AnyFunSuite {

  val q = Hypergraph(Vector(
    Atom("R1", Vector("a", "b", "c")),
    Atom("R2", Vector("a", "d")),
    Atom("R3", Vector("c", "d")),
    Atom("R4", Vector("b", "e")),
    Atom("R5", Vector("c", "e")),
  ))

  test("attributes are collected in first-appearance order") {
    assert(q.attributes == Vector("a", "b", "c", "d", "e"))
  }

  test("attrId is a dense bijection") {
    assert(q.attrId.values.toSet == (0 until 5).toSet)
    assert(q.attrId("a") == 0 && q.attrId("e") == 4)
  }

  test("edges mirror atom schemas as id sets") {
    assert(q.edges(0) == Set(0, 1, 2))
    assert(q.edges(1) == Set(0, 3))
    assert(q.edges(4) == Set(2, 4))
  }

  test("numAttrs and numAtoms") {
    assert(q.numAttrs == 5)
    assert(q.numAtoms == 5)
  }

  test("atomsWith finds all atoms containing an attribute") {
    assert(q.atomsWith(q.attrId("c")) == Vector(0, 2, 4))
    assert(q.atomsWith(q.attrId("e")) == Vector(3, 4))
  }

  test("atom rejects repeated attributes") {
    intercept[IllegalArgumentException](Atom("X", Vector("a", "a")))
  }

  test("empty query is rejected") {
    intercept[IllegalArgumentException](Hypergraph(Vector.empty))
  }

  test("query library: Q1 is the triangle") {
    val q1 = QueryLibrary.q1
    assert(q1.numAtoms == 3 && q1.numAttrs == 3)
    assert(q1.edges.toSet == Set(Set(0, 1), Set(1, 2), Set(0, 2)))
  }

  test("query library: Q3 is the 5-clique") {
    val q3 = QueryLibrary.q3
    assert(q3.numAtoms == 10 && q3.numAttrs == 5)
    val pairs = for (i <- 0 until 5; j <- i + 1 until 5) yield Set(i, j)
    assert(q3.edges.toSet == pairs.toSet)
  }

  test("query library: Q4/Q5/Q6 grow by one chord each") {
    assert(QueryLibrary.q4.numAtoms == 6)
    assert(QueryLibrary.q5.numAtoms == 7)
    assert(QueryLibrary.q6.numAtoms == 8)
    assert(QueryLibrary.q5.edges.toSet.subsetOf(QueryLibrary.q6.edges.toSet))
    assert(QueryLibrary.q4.edges.toSet.subsetOf(QueryLibrary.q5.edges.toSet))
  }

  test("query library: every reported query uses 5 or fewer attributes") {
    QueryLibrary.reported.values.foreach(h => assert(h.numAttrs <= 5))
  }

  test("query library: all binary atoms (subgraph queries)") {
    QueryLibrary.all.values.foreach(h => h.atoms.foreach(a => assert(a.attrs.length == 2)))
  }
}
