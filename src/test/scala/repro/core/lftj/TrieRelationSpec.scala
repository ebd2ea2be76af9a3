package repro.core.lftj

import org.scalatest.funsuite.AnyFunSuite

class TrieRelationSpec extends AnyFunSuite {

  private val ordPos: Map[Int, Int] = Map(0 -> 0, 1 -> 1, 2 -> 2)

  test("build sorts tuples lexicographically") {
    val t = TrieRelation.build(Seq(0, 1), ordPos,
      Seq(Array(3L, 1L), Array(1L, 2L), Array(1L, 1L), Array(2L, 9L)))
    assert(t.rows.map(_.toVector).toVector ==
      Vector(Vector(1L, 1L), Vector(1L, 2L), Vector(2L, 9L), Vector(3L, 1L)))
  }

  test("build keeps duplicate tuples as adjacent runs") {
    val t = TrieRelation.build(Seq(0, 1), ordPos,
      Seq(Array(1L, 2L), Array(1L, 1L), Array(1L, 2L), Array(1L, 1L), Array(1L, 2L)))
    assert(t.rows.map(_.toVector).toVector ==
      Vector(Vector(1L, 1L), Vector(1L, 1L), Vector(1L, 2L), Vector(1L, 2L), Vector(1L, 2L)))
    // The run of (1, 2) within the prefix 1 has the tuple's multiplicity.
    val s = t.seekGE(1, 0, t.size, 2L)
    assert(t.equalRangeEnd(1, s, t.size, 2L) - s == 3)
  }

  test("build reorders columns to follow the attribute order") {
    // Input columns are (attr 1, attr 0); stored order must be (attr 0, attr 1).
    val t = TrieRelation.build(Seq(1, 0), ordPos, Seq(Array(5L, 1L), Array(6L, 2L)))
    assert(t.levels.toSeq == Seq(0, 1))
    assert(t.rows.map(_.toVector).toVector == Vector(Vector(1L, 5L), Vector(2L, 6L)))
  }

  test("levels reflect the global order positions of the attrs") {
    val pos = Map(0 -> 4, 2 -> 1, 7 -> 3)
    val t = TrieRelation.build(Seq(0, 7, 2), pos, Seq(Array(1L, 2L, 3L)))
    // Sorted by ord position: attr 2 (pos 1), attr 7 (pos 3), attr 0 (pos 4).
    assert(t.levels.toSeq == Seq(1, 3, 4))
    assert(t.rows.head.toVector == Vector(3L, 2L, 1L))
  }

  test("seekGE finds the first row at or above a value") {
    // Two columns give the first column a run of equal values.
    val t = TrieRelation.build(Seq(0, 1), ordPos,
      Seq(Array(2L, 1L), Array(4L, 1L), Array(4L, 2L), Array(9L, 1L)))
    assert(t.seekGE(0, 0, t.size, 1L) == 0)
    assert(t.seekGE(0, 0, t.size, 4L) == 1)
    assert(t.seekGE(0, 0, t.size, 5L) == 3)
    assert(t.seekGE(0, 0, t.size, 10L) == t.size)
  }

  test("equalRangeEnd finds the end of a run") {
    val t = TrieRelation.build(Seq(0, 1), ordPos,
      Seq(Array(2L, 1L), Array(4L, 1L), Array(4L, 2L), Array(9L, 1L)))
    assert(t.equalRangeEnd(0, 1, t.size, 4L) == 3)
    assert(t.equalRangeEnd(0, 0, t.size, 2L) == 1)
  }

  test("empty relation builds and seeks safely") {
    val t = TrieRelation.build(Seq(0, 1), ordPos, Seq.empty)
    assert(t.size == 0)
    assert(t.seekGE(0, 0, 0, 5L) == 0)
  }

  test("arity matches the number of columns") {
    val t = TrieRelation.build(Seq(0, 1, 2), ordPos, Seq(Array(1L, 2L, 3L)))
    assert(t.arity == 3)
  }
}
