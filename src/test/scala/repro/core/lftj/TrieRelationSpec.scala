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

  test("column 0 gets offsets only when its span is at most twice its size") {
    def t(c0: Long*) = TrieRelation.build(Seq(0, 1), ordPos, c0.map(v => Array(v, 0L)))
    // An edge relation's CSR offsets: the first row of each value, 3 absent.
    assert(t(1L, 1L, 2L, 4L).offsets.toSeq == Seq(0, 2, 3, 3))
    assert(t(-3L, -3L, -2L).offsets.toSeq == Seq(0, 2))
    assert(t(0L, 3L).offsets.toSeq == Seq(0, 1, 1, 1))
    assert(t(0L, 4L).offsets == null)
    assert(t(Long.MinValue, Long.MaxValue).offsets == null)
    assert(TrieRelation.build(Seq(0, 1), ordPos, Seq.empty).offsets == null)
  }

  test("atLevels shares the columns and the offsets of its source") {
    val t = TrieRelation.build(Seq(0, 1, 2), ordPos, Seq(Array(1L, 2L, 3L), Array(2L, 1L, 1L)))
    val v = t.atLevels(Array(0, 1))
    assert(t.offsets != null)
    assert(v.offsets eq t.offsets)
    assert(v.cols eq t.cols)
    assert(v.seekGE(0, 0, v.size, 2L) == 1)
  }

  test("property (scalacheck): column-0 seeks equal a linear scan with and without offsets") {
    // Column-0 values of one of three shapes: dense from a base that may be
    // negative; a span of exactly 2·size or 2·size + 1; or both ends of Long.
    val column = Gen.choose(2, 12).flatMap { n =>
      def around(lo: Long, hi: Long) = Gen.listOfN(n - 2, Gen.choose(lo, hi)).map(lo +: hi +: _)
      Gen.oneOf(
        Gen.choose(-20L, 20L).flatMap(b => Gen.listOfN(n, Gen.choose(b, b + n))),
        Gen.zip(Gen.choose(-20L, 20L), Gen.choose(0, 1)).flatMap { case (b, extra) => around(b, b + 2L * n - 1 + extra) },
        around(Long.MinValue, Long.MaxValue),
      )
    }
    val seen = collection.mutable.Set.empty[String]
    val prop = Prop.forAll(column) { c0 =>
      val t   = TrieRelation.build(Seq(0, 1), ordPos, c0.map(v => Array(v, -v)))
      val c   = t.cols(0)
      val min = c.head; val max = c.last
      val span = BigInt(max) - BigInt(min) + 1
      val dense = t.offsets != null
      seen += (if (dense) "offsets" else "no offsets")
      if (dense && min < 0) seen += "negative min0"
      if (span == 2 * t.size) seen += s"span 2·size, offsets $dense"
      if (span == 2 * t.size + 1) seen += s"span 2·size + 1, offsets $dense"
      if (min == Long.MinValue && max == Long.MaxValue) seen += s"whole Long range, offsets $dense"
      val probes = (c.toSeq.flatMap(v => Seq(v - 1, v, v + 1)) ++ Seq(Long.MinValue, Long.MaxValue)).distinct
      if (probes.exists(_ < min)) seen += "probe below min0"
      if (probes.exists(_ > max)) seen += "probe above max0"
      def scan(from: Int, hi: Int)(p: Long => Boolean) = (from until hi).find(j => p(c(j))).getOrElse(hi)
      val seeks = for (from <- 0 to t.size; hi <- from to t.size; v <- probes) yield
        t.seekGE(0, from, hi, v) == scan(from, hi)(_ >= v) && t.equalRangeEnd(0, from, hi, v) == scan(from, hi)(_ > v)
      // The offsets cost no more than column 0: an Int per value, a Long per row.
      dense == (span <= 2 * t.size) && (!dense || 4L * t.offsets.length <= 8L * t.size) && seeks.forall(identity)
    }
    val res = ScTest.check(ScTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, res.status.toString)
    assert(seen == Set("offsets", "no offsets", "negative min0", "span 2·size, offsets true",
      "span 2·size + 1, offsets false", "whole Long range, offsets false", "probe below min0",
      "probe above max0"), seen)
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

  test("property (scalacheck): packed and comparator builds equal a sorted oracle") {
    // Each column's values take one of five shapes: few small values around
    // 0 (negatives, duplicate rows); 0, 1 or Long.MaxValue (a 63-bit span);
    // 0 or 1; 2^20-wide values (four columns need 80 bits); or both ends of
    // Long. A case gives all its columns one shape, each column its own, or
    // a 63-bit column beside 0/1 columns (64 bits over two columns).
    val small = Gen.choose(-3L, 3L)
    val top   = Gen.oneOf(0L, 1L, Long.MaxValue)
    val bit   = Gen.oneOf(0L, 1L)
    val wide  = Gen.choose(0L, (1L << 20) - 1)
    val ends  = Gen.frequency(3 -> Gen.choose(-2L, 2L), 1 -> Gen.const(Long.MinValue), 1 -> Gen.const(Long.MaxValue))
    val shape = Gen.oneOf(Seq(small, top, bit, wide, ends))
    val cases = for {
      k      <- Gen.choose(1, 4)
      // Input columns in a random order of k of the 4 attributes.
      attrs  <- Gen.pick(k, 0 until 4).flatMap(a => Gen.listOfN(k, Gen.long).map(a.zip(_).sortBy(_._2).map(_._1).toSeq))
      shapes <- Gen.oneOf(shape.map(List.fill(k)(_)), Gen.listOfN(k, shape), Gen.const(top :: List.fill(k - 1)(bit)))
      n      <- Gen.frequency(1 -> Gen.const(0), 9 -> Gen.choose(1, 30))
      rows   <- Gen.listOfN(n, Gen.sequence[List[Long], Long](shapes).map(_.toArray))
    } yield (attrs, rows)
    val pos  = Map(0 -> 0, 1 -> 1, 2 -> 2, 3 -> 3)
    val seen = collection.mutable.Set.empty[String]
    val prop = Prop.forAll(cases) { case (attrs, rows) =>
      val t      = TrieRelation.build(attrs, pos, rows)
      val perm   = attrs.indices.sortBy(i => attrs(i))
      val sorted = rows.map(r => perm.map(r(_)).toVector)
        .sorted(Ordering.Implicits.seqOrdering[Vector, Long])
      val want   = Vector.tabulate(attrs.length)(i => sorted.map(_(i)))
      // The bits of each column's span; a row packs when they sum to <= 63.
      val bits   = want.map(c => if (c.isEmpty) 0 else (BigInt(c.max) - BigInt(c.min)).bitLength)
      val packs  = rows.nonEmpty && bits.sum <= 63
      val packed = TrieRelation.packing(t.cols).isDefined
      seen += (if (packed) "packed" else "comparator")
      seen += s"arity ${attrs.length}"
      if (rows.isEmpty) seen += "empty"
      if (want.exists(_.exists(_ < 0))) seen += "negative"
      if (sorted.distinct.length < sorted.length) seen += s"duplicates, packed $packed"
      if (bits.sum == 63) seen += s"63 bits, packed $packed"
      if (bits.forall(_ < 64) && bits.sum == 64) seen += s"64 bits over columns, packed $packed"
      if (bits.contains(64)) seen += s"a 64-bit span, packed $packed"
      if (want.exists(c => c.contains(Long.MinValue) && c.contains(Long.MaxValue))) seen += s"whole Long range, packed $packed"
      if (attrs.length == 4 && bits.forall(_ >= 16) && bits.sum > 63) seen += s"four wide columns, packed $packed"
      t.size == rows.length && columns(t) == want && packed == packs
    }
    val res = ScTest.check(ScTest.Parameters.default.withMinSuccessfulTests(400), prop)
    assert(res.passed, res.status.toString)
    assert(seen == Set("packed", "comparator", "arity 1", "arity 2", "arity 3", "arity 4", "empty",
      "negative", "duplicates, packed true", "duplicates, packed false", "63 bits, packed true",
      "64 bits over columns, packed false", "a 64-bit span, packed false", "whole Long range, packed false",
      "four wide columns, packed false"), seen)
  }
}
