package repro.core.ghd

import org.scalacheck.{Gen, Prop, Test => ScTest}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

import repro.core.hypergraph.{Atom, Hypergraph, QueryLibrary}

class GHDSpec extends AnyFunSuite {

  private def checkInvariants(t: HyperTree): Unit = {
    val q = t.query
    // Every atom appears in exactly one node.
    val covered = t.nodes.flatMap(_.atomIdxs)
    assert(covered.sorted == q.atoms.indices.toVector, s"atom partition broken: $t")
    // Bags are the unions of their atoms' schemas.
    t.nodes.foreach(n => assert(n.attrs == n.atomIdxs.flatMap(q.edges).toSet))
    // The bags are acyclic and the tree has running intersection.
    assert(GYO.isAcyclic(t.nodes.map(_.attrs)))
    assert(GYO.hasRunningIntersection(t.nodes.map(_.attrs), t.edges))
  }

  test("triangle decomposes into a single bag of width 1.5") {
    val t = GHD.decompose(QueryLibrary.q1)
    checkInvariants(t)
    assert(t.nodes.length == 1)
    assert(math.abs(t.nodes.head.width - 1.5) < 1e-6)
  }

  test("the paper's example query gets the Fig. 5 hypertree") {
    // Q = R1(a,b,c) ⋈ R2(a,d) ⋈ R3(c,d) ⋈ R4(b,e) ⋈ R5(c,e).
    val q = Hypergraph(Vector(
      Atom("R1", Vector("a", "b", "c")),
      Atom("R2", Vector("a", "d")),
      Atom("R3", Vector("c", "d")),
      Atom("R4", Vector("b", "e")),
      Atom("R5", Vector("c", "e")),
    ))
    val t = GHD.decompose(q)
    checkInvariants(t)
    // Fig. 5: v_a = {R1}, v_b = {R2 ⋈ R3}, v_c = {R4 ⋈ R5}.
    val groups = t.nodes.map(_.atomIdxs.toSet).toSet
    assert(groups == Set(Set(0), Set(1, 2), Set(3, 4)), s"got $t")
  }

  test("Q2 decomposition is acyclic with bounded width") {
    val t = GHD.decompose(QueryLibrary.q2)
    checkInvariants(t)
    assert(t.maxWidth <= 2.0 + 1e-6)
  }

  test("Q3 (5-clique) decomposes into a single bag of width 2.5") {
    val t = GHD.decompose(QueryLibrary.q3)
    checkInvariants(t)
    assert(t.nodes.length == 1)
    assert(math.abs(t.maxWidth - 2.5) < 1e-6)
  }

  test("Q4 splits the triangle {ab,ea,be} from the path {bc,cd,de}") {
    val t = GHD.decompose(QueryLibrary.q4)
    checkInvariants(t)
    assert(t.nodes.length >= 2)
    val q = QueryLibrary.q4
    val byAttrs = t.nodes.map(n => n.attrs.map(q.attributes))
    assert(byAttrs.exists(_ == Set("a", "b", "e")), s"got $t")
    assert(t.maxWidth <= 2.0 + 1e-6)
  }

  test("Q5 and Q6 decompositions keep width at most 2") {
    for (q <- Seq(QueryLibrary.q5, QueryLibrary.q6)) {
      val t = GHD.decompose(q)
      checkInvariants(t)
      assert(t.maxWidth <= 2.0 + 1e-6, s"width ${t.maxWidth} for $q")
    }
  }

  test("acyclic queries decompose with width 1 everywhere") {
    for (q <- Seq(QueryLibrary.q7, QueryLibrary.q8, QueryLibrary.q9,
                  QueryLibrary.q10, QueryLibrary.q11)) {
      val t = GHD.decompose(q)
      checkInvariants(t)
      assert(t.maxWidth <= 1.0 + 1e-6, s"width ${t.maxWidth} for $q")
    }
  }

  test("single-atom query decomposes trivially") {
    val t = GHD.decompose(Hypergraph(Vector(Atom("R", Vector("x", "y")))))
    checkInvariants(t)
    assert(t.nodes.length == 1 && t.edges.isEmpty)
  }

  test("inducesConnectedSubtree on singleton and empty sets") {
    val t = GHD.decompose(QueryLibrary.q4)
    assert(t.inducesConnectedSubtree(Set.empty))
    assert(t.inducesConnectedSubtree(Set(0)))
  }

  test("GHD.decompose gives the recorded decompositions of Q1–Q11") {
    // Per query: each node's (atoms, attribute ids, width), then the edges.
    val pinned = Seq(
      QueryLibrary.q1  -> (Vector((Vector(0, 1, 2), Set(0, 1, 2), 1.5)), Set.empty[(Int, Int)]),
      QueryLibrary.q2  -> (Vector((Vector(0, 1, 4), Set(0, 1, 2), 1.5), (Vector(2, 3), Set(0, 2, 3), 2.0)),
                           Set((0, 1))),
      QueryLibrary.q3  -> (Vector((Vector(0, 1, 2, 3, 4, 5, 6, 7, 8, 9), Set(0, 1, 2, 3, 4), 2.5)),
                           Set.empty[(Int, Int)]),
      QueryLibrary.q4  -> (Vector((Vector(0, 4), Set(0, 1, 4), 2.0), (Vector(1, 2), Set(1, 2, 3), 2.0),
                                  (Vector(3, 5), Set(1, 3, 4), 2.0)), Set((0, 2), (1, 2))),
      QueryLibrary.q5  -> (Vector((Vector(0, 4, 5), Set(0, 1, 4), 1.5), (Vector(1, 2), Set(1, 2, 3), 2.0),
                                  (Vector(3, 6), Set(1, 3, 4), 2.0)), Set((0, 2), (1, 2))),
      QueryLibrary.q6  -> (Vector((Vector(0, 4, 5), Set(0, 1, 4), 1.5),
                                  (Vector(1, 2, 3, 6, 7), Set(1, 2, 3, 4), 2.0)), Set((0, 1))),
      QueryLibrary.q7  -> (Vector((Vector(0), Set(0, 1), 1.0), (Vector(1), Set(1, 2), 1.0)), Set((0, 1))),
      QueryLibrary.q8  -> (Vector((Vector(0), Set(0, 1), 1.0), (Vector(1), Set(1, 2), 1.0),
                                  (Vector(2), Set(2, 3), 1.0)), Set((0, 1), (1, 2))),
      QueryLibrary.q9  -> (Vector((Vector(0), Set(0, 1), 1.0), (Vector(1), Set(0, 2), 1.0),
                                  (Vector(2), Set(0, 3), 1.0)), Set((0, 1), (0, 2))),
      QueryLibrary.q10 -> (Vector((Vector(0), Set(0, 1), 1.0), (Vector(1), Set(1, 2), 1.0),
                                  (Vector(2), Set(2, 3), 1.0), (Vector(3), Set(3, 4), 1.0)),
                           Set((0, 1), (1, 2), (2, 3))),
      QueryLibrary.q11 -> (Vector((Vector(0), Set(0, 1), 1.0), (Vector(1), Set(0, 2), 1.0),
                                  (Vector(2), Set(0, 3), 1.0), (Vector(3), Set(0, 4), 1.0)),
                           Set((0, 1), (0, 2), (0, 3))),
    )
    for (((q, (nodes, edges)), k) <- pinned.zipWithIndex) {
      val t = GHD.decompose(q)
      assert(t.nodes.map(n => (n.atomIdxs, n.attrs)) == nodes.map(n => (n._1, n._2)), s"Q${k + 1}: $t")
      assert(t.nodes.map(_.width).zip(nodes.map(_._3)).forall { case (a, b) => math.abs(a - b) < 1e-9 },
        s"Q${k + 1}: $t")
      assert(t.edges == edges, s"Q${k + 1}: $t")
    }
  }

  test("a group whose own width falls as an atom joins it is not cut") {
    // {R0,R2,R3} is a star over x2 of width 3, but R4 covers its three
    // leaves: {R0,R2,R3,R4} | {R1} is acyclic with width 5/3.
    val q = Hypergraph(Vector(
      Atom("R0", Vector("x2", "x1")), Atom("R1", Vector("x2", "x3")), Atom("R2", Vector("x0", "x2")),
      Atom("R3", Vector("x4", "x2")), Atom("R4", Vector("x0", "x1", "x4"))))
    val t = GHD.decompose(q)
    checkInvariants(t)
    assert(math.abs(t.maxWidth - 5.0 / 3) < 1e-9, s"got $t")
    assert(t.nodes.map(_.atomIdxs.toSet).toSet == Set(Set(0, 2, 3, 4), Set(1)), s"got $t")
  }

  /** The score `decompose` minimizes, by an unpruned search over every
    * acyclic set partition of the atoms.
    */
  private def bestScoreBySearch(q: Hypergraph): (Double, Int, Double, Int) = {
    def partitions(atoms: List[Int]): Iterator[List[List[Int]]] = atoms match {
      case Nil       => Iterator(Nil)
      case a :: rest => partitions(rest).flatMap(p => Iterator(List(a) :: p) ++ p.indices.map(g => p.updated(g, a :: p(g))))
    }
    val scores = partitions(q.atoms.indices.toList).map(_.map(_.map(q.edges))).collect {
      case groups if GYO.isAcyclic(groups.map(_.reduce(_ ++ _))) =>
        val widths = groups.map(es => Simplex.fractionalEdgeCover(es.reduce(_ ++ _), es))
        (widths.max, groups.map(_.reduce(_ ++ _).size).max, widths.sum, groups.length)
    }
    // Widths compare within 1e-9, as in decompose.
    scores.minBy { case (w, a, s, n) => (math.rint(w * 1e6), a, math.rint(s * 1e6), n) }
  }

  test("property (scalacheck): decompose scores as well as an unpruned search") {
    val queries = for {
      n     <- Gen.choose(2, 6)
      atoms <- Gen.listOfN(n, Gen.choose(1, 3).flatMap(Gen.pick(_, 0 until 5)))
    } yield Hypergraph(atoms.zipWithIndex.map { case (vs, i) => Atom(s"R$i", vs.map(v => s"x$v").toVector) }.toVector)
    val seen = collection.mutable.Set.empty[Int]
    val prop = Prop.forAllNoShrink(queries) { q =>
      seen ++= q.edges.map(_.size)
      val t = GHD.decompose(q)
      checkInvariants(t)
      val (w, a, s, n) = bestScoreBySearch(q)
      Prop(math.abs(t.maxWidth - w) < 1e-9 && t.nodes.map(_.attrs.size).max == a &&
        math.abs(t.nodes.map(_.width).sum - s) < 1e-9 && t.nodes.length == n) :| s"$q: $t, best ($w, $a, $s, $n)"
    }
    // With this seed the 190th query is one that a prune on the groups' own
    // widths gets wrong.
    val res = ScTest.check(ScTest.Parameters.default.withMinSuccessfulTests(400).withInitialSeed(Seed(8L)), prop)
    assert(res.passed, res.status.toString)
    assert(seen == Set(1, 2, 3), seen)
  }
}
