package repro.core.lftj

import org.scalacheck.{Gen, Prop, Test => ScTest}
import org.scalatest.funsuite.AnyFunSuite

class TrieRelationSpec extends AnyFunSuite {

  private val ordPos: Map[Int, Int] = Map(0 -> 0, 1 -> 1, 2 -> 2)

  private def columns(t: TrieRelation) = t.cols.map(_.toVector).toVector

  test("build sorts tuples lexicographically") {
    val t = TrieRelation.build(Seq(0, 1), ordPos,
      Seq(Array(3L, 1L), Array(1L, 2L), Array(1L, 1L), Array(2L, 9L)))
    assert(columns(t) == Vector(Vector(1L, 1L, 2L, 3L), Vector(1L, 2L, 9L, 1L)))
  }

  test("build keeps duplicate tuples as adjacent runs") {
    val t = TrieRelation.build(Seq(0, 1), ordPos,
      Seq(Array(1L, 2L), Array(1L, 1L), Array(1L, 2L), Array(1L, 1L), Array(1L, 2L)))
    assert(columns(t) == Vector(Vector(1L, 1L, 1L, 1L, 1L), Vector(1L, 1L, 2L, 2L, 2L)))
    // The run of (1, 2) within the prefix 1 has the tuple's multiplicity.
    val s = t.seekGE(1, 0, t.size, 2L)
    assert(t.equalRangeEnd(1, s, t.size, 2L) - s == 3)
  }

  test("build reorders columns to follow the attribute order") {
    // Input columns are (attr 1, attr 0); stored order must be (attr 0, attr 1).
    val t = TrieRelation.build(Seq(1, 0), ordPos, Seq(Array(5L, 1L), Array(6L, 2L)))
    assert(t.levels.toSeq == Seq(0, 1))
    assert(columns(t) == Vector(Vector(1L, 2L), Vector(5L, 6L)))
  }

  test("levels reflect the global order positions of the attrs") {
    val pos = Map(0 -> 4, 2 -> 1, 7 -> 3)
    val t = TrieRelation.build(Seq(0, 7, 2), pos, Seq(Array(1L, 2L, 3L)))
    // Sorted by ord position: attr 2 (pos 1), attr 7 (pos 3), attr 0 (pos 4).
    assert(t.levels.toSeq == Seq(1, 3, 4))
    assert(t.cols.map(_(0)).toSeq == Seq(3L, 2L, 1L))
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

  test("property (scalacheck): galloping seeks equal a linear scan") {
    // Few distinct values make long duplicate runs in both columns.
    val value = Gen.frequency(9 -> Gen.choose(0L, 3L), 1 -> Gen.const(Long.MaxValue))
    val tuple  = Gen.zip(Gen.choose(0L, 4L), value).map { case (a, b) => Array(a, b) }
    val tuples = Gen.choose(0, 40).flatMap(Gen.listOfN(_, tuple))
    val probes = Seq(Long.MinValue, -1L, 0L, 1L, 2L, 3L, 4L, 5L, Long.MaxValue)
    // The cases the scans must have met, over all tries.
    var emptyRange, below, above, runToHi, innerColumn = false

    /** Checks both seeks against a scan for every [from, hi) in [lo, end). */
    def agree(t: TrieRelation, d: Int, lo: Int, end: Int): Boolean = {
      val c = t.cols(d)
      def scan(from: Int, hi: Int)(p: Long => Boolean) = (from until hi).find(j => p(c(j))).getOrElse(hi)
      (for (from <- lo to end; hi <- from to end; v <- probes) yield {
        val ge  = scan(from, hi)(_ >= v)
        val past = scan(from, hi)(_ > v)
        emptyRange |= from == hi
        below |= from < hi && (from until hi).forall(c(_) > v)
        above |= from < hi && (from until hi).forall(c(_) < v)
        runToHi |= from < hi && c(from) == v && past == hi
        innerColumn |= d == 1 && (lo > 0 || end < t.size) && from < hi
        t.seekGE(d, from, hi, v) == ge && t.equalRangeEnd(d, from, hi, v) == past
      }).forall(identity)
    }

    val prop = Prop.forAll(tuples) { ts =>
      val t = TrieRelation.build(Seq(0, 1), ordPos, ts)
      // Column 0 over any range; column 1 inside each fixed column-0 range.
      val runs = (0 until t.size).groupBy(t.cols(0)(_)).values.map(r => (r.min, r.max + 1))
      agree(t, 0, 0, t.size) && runs.forall { case (s, e) => agree(t, 1, s, e) }
    }
    val res = ScTest.check(ScTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(res.passed, res.status.toString)
    assert(emptyRange && below && above && runToHi && innerColumn)
  }
}
