package repro.core.lftj

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Prop, Test => ScTest}

import repro.core.TestHelpers
import repro.core.hypergraph.{Hypergraph, QueryLibrary}

class LeapfrogSpec extends AnyFunSuite {

  /** Runs LFTJ locally for a query over per-atom tuple lists with the given
    * attribute order; returns tuples in attribute-id order.
    */
  private def lftj(
      q: Hypergraph,
      data: IndexedSeq[Seq[Array[Long]]],
      ord: Seq[Int],
      firstFixed: Option[Long] = None,
      stats: LeapfrogStats = null,
  ): Set[Vector[Long]] = {
    val lvl = ord.zipWithIndex.toMap
    val tries = q.atoms.indices.map { i =>
      TrieRelation.build(q.atoms(i).attrs.map(q.attrId), lvl, data(i))
    }
    val lf = new Leapfrog(tries, ord.length, firstFixed, stats)
    lf.map { row => (0 until q.numAttrs).map(a => row(lvl(a))).toVector }.toSet
  }

  private val defaultOrd: Hypergraph => Seq[Int] = q => 0 until q.numAttrs

  /** 2–3-ary atoms over distinct attributes of 0 until n, drawn until every
    * attribute is bound.
    */
  private def randomAtoms(rnd: scala.util.Random, n: Int): Vector[Vector[Int]] =
    Iterator.iterate((Vector.empty[Vector[Int]], Set.empty[Int])) { case (as, covered) =>
      val a = rnd.shuffle((0 until n).toVector).take(2 + rnd.nextInt(math.min(2, n - 1)))
      (as :+ a, covered ++ a)
    }.dropWhile(_._2.size < n).next()._1

  /** A naive oracle over the values of `domain`, which must be ascending:
    * per level, the prefixes that survive it in Leapfrog's emission order (a
    * prefix over levels 0..l survives if every relation binding one of those
    * levels has a tuple agreeing with it there), and the bag join: each full
    * binding with its multiplicity, the number of combinations of equal
    * tuples.
    */
  private def oracle(
      atoms: Seq[Vector[Int]],
      data: Seq[Seq[Array[Long]]],
      lvl: Map[Int, Int],
      domain: Vector[Long],
      firstFixed: Option[Long],
  ): (IndexedSeq[Vector[Vector[Long]]], Vector[(Vector[Long], Long)]) = {
    def agrees(prefix: Vector[Long]): Boolean = atoms.indices.forall { i =>
      val bound = atoms(i).indices.filter(j => lvl(atoms(i)(j)) < prefix.length)
      bound.isEmpty || data(i).exists(t => bound.forall(j => t(j) == prefix(lvl(atoms(i)(j)))))
    }
    val prefixes = (1 until lvl.size).scanLeft(firstFixed.fold(domain)(Vector(_)).map(Vector(_)).filter(agrees)) {
      (ps, _) => for (p <- ps; v <- domain if agrees(p :+ v)) yield p :+ v
    }
    val expected = prefixes.last.map { b =>
      b -> atoms.indices.map(i => count(atoms(i), data(i), lvl, b)).product
    }
    (prefixes, expected)
  }

  /** The tuples of a relation over `attrs` that agree with the binding `b`. */
  private def count(attrs: Vector[Int], tuples: Seq[Array[Long]], lvl: Map[Int, Int], b: Vector[Long]): Long =
    tuples.count(t => t.indices.forall(j => t(j) == b(lvl(attrs(j))))).toLong

  test("triangle join on a hand-built graph") {
    // Graph: 1-2, 2-3, 1-3 (a triangle), plus a dangling edge 3-4.
    val g = Seq((1, 2), (2, 3), (1, 3), (3, 4)).flatMap { case (x, y) =>
      Seq(Array(x.toLong, y.toLong), Array(y.toLong, x.toLong))
    }
    val q   = QueryLibrary.q1
    val got = lftj(q, TestHelpers.bindGraph(q, g), defaultOrd(q))
    // 6 ordered embeddings of the single triangle.
    assert(got.size == 6)
    assert(got.contains(Vector(1L, 2L, 3L)))
    assert(got == TestHelpers.naiveJoin(q, TestHelpers.bindGraph(q, g)))
  }

  test("triangle join with no triangles is empty") {
    val g = Seq((1, 2), (2, 3), (3, 4)).flatMap { case (x, y) =>
      Seq(Array(x.toLong, y.toLong), Array(y.toLong, x.toLong))
    }
    val q = QueryLibrary.q1
    assert(lftj(q, TestHelpers.bindGraph(q, g), defaultOrd(q)).isEmpty)
  }

  test("empty relation gives empty result") {
    val q = QueryLibrary.q1
    val g = Seq(Array(1L, 2L))
    val data = IndexedSeq(g, Seq.empty[Array[Long]], g)
    assert(lftj(q, data, defaultOrd(q)).isEmpty)
  }

  test("matches naive join on every reported query over a small random graph") {
    val g = TestHelpers.randomGraph(nodes = 12, edges = 25, seed = 5)
    for ((name, q) <- QueryLibrary.all) {
      val data = TestHelpers.bindGraph(q, g)
      val got  = lftj(q, data, defaultOrd(q))
      val exp  = TestHelpers.naiveJoin(q, data)
      assert(got == exp, s"$name: got ${got.size}, expected ${exp.size}")
    }
  }

  test("result is identical under every attribute order (Q1, Q2, Q4)") {
    val g = TestHelpers.randomGraph(nodes = 10, edges = 20, seed = 9)
    for (q <- Seq(QueryLibrary.q1, QueryLibrary.q2, QueryLibrary.q4)) {
      val data = TestHelpers.bindGraph(q, g)
      val exp  = TestHelpers.naiveJoin(q, data)
      for (ord <- (0 until q.numAttrs).permutations.take(12)) {
        assert(lftj(q, data, ord) == exp, s"order $ord differs for $q")
      }
    }
  }

  test("level counts are consistent: level 0 counts its bindings") {
    val g = Seq((1, 2), (2, 3), (1, 3)).flatMap { case (x, y) =>
      Seq(Array(x.toLong, y.toLong), Array(y.toLong, x.toLong))
    }
    val q = QueryLibrary.q1
    val stats = new LeapfrogStats(q.numAttrs)
    val got = lftj(q, TestHelpers.bindGraph(q, g), defaultOrd(q), stats = stats)
    assert(stats.levelCounts(0) == 3) // a ∈ {1,2,3}
    assert(stats.levelCounts(2) == got.size.toLong)
    assert(stats.extensions == stats.levelCounts.sum)
  }

  test("firstFixed restricts the result to one root value") {
    val g = TestHelpers.randomGraph(nodes = 12, edges = 30, seed = 17)
    val q = QueryLibrary.q1
    val data = TestHelpers.bindGraph(q, g)
    val all  = lftj(q, data, defaultOrd(q))
    val roots = all.map(_.head)
    for (r <- roots.take(3)) {
      val sub = lftj(q, data, defaultOrd(q), firstFixed = Some(r))
      assert(sub == all.filter(_.head == r))
    }
    // A value absent from the graph yields nothing.
    assert(lftj(q, data, defaultOrd(q), firstFixed = Some(999999L)).isEmpty)
  }

  test("countAll equals the number of emitted tuples") {
    val g = TestHelpers.randomGraph(nodes = 10, edges = 22, seed = 23)
    val q = QueryLibrary.q1
    val lvl  = defaultOrd(q).zipWithIndex.toMap
    val tries = q.atoms.indices.map { i =>
      TrieRelation.build(q.atoms(i).attrs.map(q.attrId), lvl, TestHelpers.bindGraph(q, g)(i))
    }
    val n1 = new Leapfrog(tries, q.numAttrs).countAll()
    val n2 = lftj(q, TestHelpers.bindGraph(q, g), defaultOrd(q)).size
    assert(n1 == n2.toLong)
  }

  test("property (scalacheck): LFTJ equals naive join on random graphs for Q1/Q7/Q9") {
    val prop = Prop.forAll(org.scalacheck.Gen.choose(0L, 1000L)) { seed =>
      val g = TestHelpers.randomGraph(nodes = 8, edges = 14, seed = seed)
      Seq(QueryLibrary.q1, QueryLibrary.q7, QueryLibrary.q9).forall { q =>
        val data = TestHelpers.bindGraph(q, g)
        lftj(q, data, defaultOrd(q)) == TestHelpers.naiveJoin(q, data)
      }
    }
    val res = ScTest.check(ScTest.Parameters.default.withMinSuccessfulTests(30), prop)
    assert(res.passed, res.status.toString)
  }

  test("skewed graph joins still match naive evaluation") {
    val g = TestHelpers.skewedGraph(nodes = 30, edges = 60, seed = 2)
    for (q <- Seq(QueryLibrary.q1, QueryLibrary.q4)) {
      val data = TestHelpers.bindGraph(q, g)
      assert(lftj(q, data, defaultOrd(q)) == TestHelpers.naiveJoin(q, data))
    }
  }

  test("Q5 in textual order keeps its exact extension and level counts") {
    // Dense enough that bindings at levels 1-3 die further down, so seeks
    // fail at levels 2-4 and not only at the leaves.
    val g = TestHelpers.randomGraph(nodes = 30, edges = 160, seed = 53)
    val q = QueryLibrary.q5
    val lvl = defaultOrd(q).zipWithIndex.toMap
    val tries = q.atoms.indices.map { i =>
      TrieRelation.build(q.atoms(i).attrs.map(q.attrId), lvl, TestHelpers.bindGraph(q, g)(i))
    }
    val stats = new LeapfrogStats(q.numAttrs)
    val rows = new Leapfrog(tries, q.numAttrs, stats = stats).map(_.toVector).toVector
    // Pinned: the sampler's per-sample cap and beta read these counts, so a
    // change to the kernel must keep them exactly.
    assert(stats.extensions == 15676L)
    assert(stats.levelCounts.toSeq == Seq(30L, 260L, 2434L, 6338L, 6614L))
    for (l <- 1 to 3) assert(stats.levelCounts(l) > rows.map(_.take(l + 1)).distinct.size, l)
    // Every node id, present or not, as the fixed level-0 value.
    val fixed = new LeapfrogStats(q.numAttrs)
    val perRoot = (1L to 30L).map(v => new Leapfrog(tries, q.numAttrs, Some(v), fixed).countAll())
    assert(perRoot.sum == rows.length.toLong)
    assert(fixed.extensions == stats.extensions)
    assert(fixed.levelCounts.toSeq == stats.levelCounts.toSeq)
  }

  test("Q4 and Q6 in their co-optimized orders keep their exact extension and level counts") {
    // The modal plans' orders of as-q4-sql and as-q6-coopt (attribute ids by
    // level), on the graph of the Q5 pin above.
    val g = TestHelpers.randomGraph(nodes = 30, edges = 160, seed = 53)
    val cases = Seq(
      (QueryLibrary.q4, Seq(1, 4, 0, 3, 2), 32778L, Seq(30L, 260L, 636L, 6338L, 25514L)),
      (QueryLibrary.q6, Seq(1, 4, 0, 2, 3), 4310L, Seq(30L, 260L, 636L, 2044L, 1340L)),
    )
    for ((q, ord, extensions, levelCounts) <- cases) {
      val lvl = ord.zipWithIndex.toMap
      val tries = q.atoms.indices.map { i =>
        TrieRelation.build(q.atoms(i).attrs.map(q.attrId), lvl, TestHelpers.bindGraph(q, g)(i))
      }
      val stats = new LeapfrogStats(q.numAttrs)
      val rows  = new Leapfrog(tries, q.numAttrs, stats = stats).countAll()
      assert(stats.extensions == extensions, ord)
      assert(stats.levelCounts.toSeq == levelCounts, ord)
      assert(rows == levelCounts.last, ord)
    }
  }

  test("property (scalacheck): rows, multiplicities and level counts equal a naive oracle for every order") {
    // Ascending, so the oracle lists prefixes in Leapfrog's emission order.
    val domain = Vector(Long.MinValue, -1L, 0L, 1L, Long.MaxValue)
    val seen   = collection.mutable.Set.empty[String]
    val prop = Prop.forAll(org.scalacheck.Gen.choose(0L, Long.MaxValue)) { seed =>
      val rnd = new scala.util.Random(seed)
      val n   = 2 + rnd.nextInt(4)
      val atoms = randomAtoms(rnd, n)
      // Few tuples over a tiny domain, so duplicates are common; sometimes none.
      val data = atoms.map(a => Vector.fill(rnd.nextInt(9))(Array.fill(a.length)(domain(rnd.nextInt(domain.length)))))
      val ord  = rnd.shuffle((0 until n).toVector)
      val lvl  = ord.zipWithIndex.toMap
      val firstFixed = if (rnd.nextInt(3) == 0) Some((domain :+ 2L)(rnd.nextInt(domain.length + 1))) else None

      val stats = new LeapfrogStats(n)
      val lf    = new Leapfrog(atoms.indices.map(i => TrieRelation.build(atoms(i), lvl, data(i))), n, firstFixed, stats)
      val got   = lf.map(row => (row.toVector, lf.multiplicity)).toVector
      val (prefixes, expected) = oracle(atoms, data, lvl, domain, firstFixed)

      val parts = (0 until n).map(l => atoms.count(_.exists(lvl(_) == l)))
      if (parts.contains(1)) seen += "single participant"
      if (atoms.exists(_.map(lvl).min > 0)) seen += "whole-relation participant"
      if (firstFixed.nonEmpty) seen += "firstFixed"
      if (atoms.exists(_.length == 3)) seen += "ternary atom"
      if (data.exists(_.isEmpty)) seen += "empty relation"
      if (got.exists(_._2 > 1)) seen += "multiplicity > 1"
      if (got.exists(_._1.contains(Long.MaxValue)) && got.exists(_._1.contains(Long.MinValue))) seen += "extreme values"
      got == expected && stats.levelCounts.toSeq == prefixes.map(_.length.toLong) &&
        stats.extensions == prefixes.map(_.length.toLong).sum
    }
    val res = ScTest.check(ScTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status.toString)
    assert(seen.size == 7, seen)
  }

  test("property (scalacheck): over a dense domain, offsets-served and galloping cursors equal a naive oracle") {
    // Values 0..7, so most relations get offsets on column 0; a relation with
    // a tuple of Outlier values has none and its column-0 cursor gallops.
    val Outlier = 1000L
    val domain  = (0L to 7L).toVector :+ Outlier
    val seen    = collection.mutable.Set.empty[String]
    val prop = Prop.forAll(org.scalacheck.Gen.choose(0L, Long.MaxValue)) { seed =>
      val rnd = new scala.util.Random(seed)
      val n   = 2 + rnd.nextInt(3)
      val atoms = randomAtoms(rnd, n)
      val outlierAtom = if (rnd.nextInt(3) == 0) rnd.nextInt(atoms.length) else -1
      val data = atoms.indices.map { i =>
        val ts = Vector.fill(rnd.nextInt(13))(Array.fill(atoms(i).length)(rnd.nextInt(8).toLong))
        if (i == outlierAtom) ts :+ Array.fill(atoms(i).length)(Outlier) else ts
      }
      val ord  = rnd.shuffle((0 until n).toVector)
      val lvl  = ord.zipWithIndex.toMap
      val firstFixed = if (rnd.nextInt(2) == 0) Some(rnd.nextInt(9).toLong) else None

      val tries = atoms.indices.map(i => TrieRelation.build(atoms(i), lvl, data(i)))
      val stats = new LeapfrogStats(n)
      val lf    = new Leapfrog(tries, n, firstFixed, stats)
      val got   = lf.map(row => (row.toVector, lf.multiplicity)).toVector

      val (prefixes, expected) = oracle(atoms, data, lvl, domain, firstFixed)

      // Every non-empty relation is a participant on column 0 at its first level.
      val dense = tries.filter(_.size > 0).groupBy(_.offsets != null)
      if (dense.contains(true)) seen += "offsets-served participant"
      if (dense.contains(false)) seen += "galloping column-0 participant"
      if (firstFixed.nonEmpty && tries.exists(t => t.levels(0) == 0 && t.offsets != null)) seen += "firstFixed on offsets"
      if (got.exists(_._2 > 1)) seen += "multiplicity > 1"
      got == expected && stats.levelCounts.toSeq == prefixes.map(_.length.toLong) &&
        stats.extensions == prefixes.map(_.length.toLong).sum
    }
    val res = ScTest.check(ScTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status.toString)
    assert(seen.size == 4, seen)
  }

  test("property (scalacheck): memoized levels replay the oracle's rows, multiplicities and counts") {
    // A dense domain and many tuples, so levels are opened again under the
    // same narrowed ranges and duplicate tuples are common.
    val domain = (0L to 3L).toVector
    val seen   = collection.mutable.Set.empty[String]
    val prop = Prop.forAll(org.scalacheck.Gen.choose(0L, Long.MaxValue)) { seed =>
      val rnd   = new scala.util.Random(seed)
      val n     = 3 + rnd.nextInt(3)
      val atoms = randomAtoms(rnd, n)
      val data  = atoms.map(a => Vector.fill(rnd.nextInt(14))(Array.fill(a.length)(domain(rnd.nextInt(domain.length)))))
      val ord   = rnd.shuffle((0 until n).toVector)
      val lvl   = ord.zipWithIndex.toMap
      val firstFixed = if (rnd.nextInt(4) == 0) Some(domain(rnd.nextInt(domain.length))) else None

      val tries = atoms.indices.map(i => TrieRelation.build(atoms(i), lvl, data(i)))
      val stats = new LeapfrogStats(n)
      val lf    = new Leapfrog(tries, n, firstFixed, stats)
      val got   = lf.map(row => (row.toVector, lf.multiplicity)).toVector
      val (prefixes, expected) = oracle(atoms, data, lvl, domain, firstFixed)

      // The memo's rule: level l > 0 is memoized unless a participant
      // narrowed by an earlier level belongs to a relation that binds level
      // 0, or firstFixed is set. Its key is each narrowed participant's
      // prefix; level l is opened once per prefix of level l - 1, and an open
      // hits when an earlier open had the same key.
      val levels   = atoms.map(_.map(lvl))
      val parts    = (l: Int) => atoms.indices.filter(i => levels(i).contains(l))
      val narrowed = (l: Int) => parts(l).filter(i => levels(i).min < l)
      val eligible = (1 until n).filter(l => narrowed(l).forall(i => levels(i).min > 0)).toSet
      val memoized = if (firstFixed.isEmpty) eligible else Set.empty[Int]
      def key(l: Int, p: Vector[Long]) = narrowed(l).map(i => levels(i).filter(_ < l).sorted.map(p))
      // Per memoized level, whether each open hits.
      val hit = memoized.map { l =>
        val keys = prefixes(l - 1).map(key(l, _))
        l -> keys.indices.map(j => keys.indexOf(keys(j)) < j)
      }.toMap
      def hitFor(l: Int, p: Vector[Long]) = hit(l)(prefixes(l - 1).indexOf(p.take(l)))
      val hits   = (0 until n).map(l => hit.get(l).fold(0L)(_.count(identity).toLong))
      // Per memoized level: one per distinct key, plus its bindings.
      val stored = (0 until n).map(l => hit.get(l).fold(0L)(h => h.count(!_) + prefixes(l).count(!hitFor(l, _))))
      val cap      = data.map(_.length.toLong).sum
      val underCap = stored.sum <= cap

      if (stats.memoHits.sum > 0) seen += "memo hits"
      // A row with a duplicated tuple whose relation's deepest level was
      // replayed for it: its multiplicity comes from restored ranges.
      if (underCap && expected.exists { case (b, _) =>
          atoms.indices.exists { i =>
            val l = levels(i).max
            memoized(l) && count(atoms(i), data(i), lvl, b) > 1 && hitFor(l, b)
          }
        }) seen += "replayed duplicates"
      if (atoms.indices.exists(i => atoms(i).length == 3 && levels(i).exists(hits(_) > 0))) seen += "ternary atom"
      if ((1 until n).exists(l => memoized(l) && narrowed(l).isEmpty && hits(l) > 0)) seen += "constant key"
      if (firstFixed.nonEmpty && eligible.exists(l => prefixes(l - 1).length > 1)) seen += "firstFixed"

      got == expected && stats.levelCounts.toSeq == prefixes.map(_.length.toLong) &&
        stats.extensions == prefixes.map(_.length.toLong).sum && stats.memoStored.sum <= cap &&
        (if (underCap) stats.memoHits.toSeq == hits && stats.memoStored.toSeq == stored
         else (0 until n).forall(l => stats.memoHits(l) <= hits(l)))
    }
    val res = ScTest.check(ScTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status.toString)
    assert(seen.size == 5, seen)
  }

  test("the memo stops storing at the input tuple count and the rows stay the oracle's") {
    // Levels a, b, c, d. Level d is memoized with key (b, c), its narrowed
    // participants R(b, d) and S(c, d); a binds neither. Each of the 30 × 30
    // keys costs 1 + 2 (two bindings of d), so the cap of 240 input tuples
    // holds 80 of them: the opens for a = 0 store the first 80, and those
    // for a = 1 hit exactly those.
    val (as, bs, ds) = (0L to 1L, 0L until 30L, 0L to 1L)
    val lvl  = Map(0 -> 0, 1 -> 1, 2 -> 2, 3 -> 3)
    val data = IndexedSeq(
      Vector(0, 1) -> (for (a <- as; b <- bs) yield Array(a, b)),
      Vector(0, 2) -> (for (a <- as; c <- bs) yield Array(a, c)),
      Vector(1, 3) -> (for (b <- bs; d <- ds) yield Array(b, d)),
      Vector(2, 3) -> (for (c <- bs; d <- ds) yield Array(c, d)),
    )
    val tries = data.map { case (attrs, ts) => TrieRelation.build(attrs, lvl, ts) }
    val cap   = tries.map(_.size.toLong).sum
    val stats = new LeapfrogStats(4)
    val lf    = new Leapfrog(tries, 4, stats = stats)
    val got   = Vector.newBuilder[(Vector[Long], Long)]
    while (lf.hasNext) {
      got += (lf.next().toVector -> lf.multiplicity)
      assert(stats.memoStored.sum <= cap)
    }
    assert(got.result() == (for (a <- as; b <- bs; c <- bs; d <- ds) yield Vector(a, b, c, d) -> 1L))
    assert(cap == 240L)
    assert(stats.memoStored.toSeq == Seq(0L, 0L, 0L, 240L))
    assert(stats.memoHits.toSeq == Seq(0L, 0L, 0L, 80L))
    assert(stats.levelCounts(2) == 1800L) // 1800 opens of d over 900 keys
  }

  test("every level must be bound by some relation") {
    val lvl = Map(0 -> 0, 1 -> 1, 2 -> 2)
    val tries = IndexedSeq(
      TrieRelation.build(Seq(0, 1), lvl, Seq(Array(1L, 2L))))
    intercept[IllegalArgumentException](new Leapfrog(tries, 3))
  }
}
