package repro.core.hcube

import org.scalatest.funsuite.AnyFunSuite

class SharesSpec extends AnyFunSuite {

  test("dup multiplies the shares of absent attributes") {
    val p = Array(2, 3, 4)
    assert(Shares.dup(Set(0), p) == 12.0)
    assert(Shares.dup(Set(0, 1, 2), p) == 1.0)
    assert(Shares.dup(Set.empty, p) == 24.0)
  }

  test("shuffledTuples sums size times duplication") {
    val p = Array(2, 2)
    val rels = Seq((Set(0), 100L), (Set(1), 50L))
    assert(Shares.shuffledTuples(rels, p) == 100.0 * 2 + 50.0 * 2)
  }

  test("triangle query at budget 16 uses near-balanced shares") {
    // Classic result: for R(a,b) ⋈ S(b,c) ⋈ T(a,c) with equal sizes the
    // optimal shares are balanced p_a ≈ p_b ≈ p_c ≈ P^(1/3). With the
    // cube count constrained to [16, 64], the best integer vector is a
    // permutation of (2,2,4) at cost 1000·(2+2+4) = 8000.
    val rels = Seq((Set(0, 1), 1000L), (Set(1, 2), 1000L), (Set(0, 2), 1000L))
    val res = Shares.optimize(rels, 3, 16)
    assert(res.p.sorted.toSeq == Seq(2, 2, 4), res.toString)
    assert(res.shuffledTuples == 8000.0)
    assert(res.cubes >= 16 && res.cubes <= 64)
  }

  test("a single relation prefers no duplication") {
    val res = Shares.optimize(Seq((Set(0, 1), 500L)), 2, 8)
    assert(res.shuffledTuples == 500.0)
    assert(res.p.forall(_ >= 1))
  }

  test("a dominant relation pulls shares to its own attributes") {
    // R(a,b) huge, S(c) tiny: partitioning on c duplicates R, so shares
    // should concentrate on a/b.
    val rels = Seq((Set(0, 1), 1000000L), (Set(2), 10L))
    val res = Shares.optimize(rels, 3, 8)
    assert(res.p(2) == 1, res.toString)
  }

  test("budget 1 forces all shares to one") {
    val res = Shares.optimize(Seq((Set(0, 1), 100L)), 2, 1)
    assert(res.p.toSeq == Seq(1, 1))
  }

  test("the parallelism floor pushes shares onto the relation's own attribute") {
    // With one unary relation on attr 0, any share on attr 1 duplicates it;
    // shares on attr 0 duplicate nothing. Meeting the cube floor of 4
    // therefore puts the whole budget on attr 0.
    val res = Shares.optimize(Seq((Set(0), 100L)), 2, 4)
    assert(res.p(0) == 4 && res.p(1) == 1, res.toString)
  }

  test("cubes equals the product of the share vector, within the window") {
    val res = Shares.optimize(Seq((Set(0, 1), 10L), (Set(1, 2), 10L)), 3, 12)
    assert(res.cubes == res.p.product)
    assert(res.cubes >= 12 && res.cubes <= 48)
  }

  test("optimize is exhaustive: no vector in the window beats the optimum") {
    val rels = Seq((Set(0, 1), 300L), (Set(1, 2), 700L), (Set(0, 2), 500L))
    val res = Shares.optimize(rels, 3, 6)
    for (p0 <- 1 to 24; p1 <- 1 to 24; p2 <- 1 to 24
         if p0 * p1 * p2 >= 6 && p0 * p1 * p2 <= 24) {
      val c = Shares.shuffledTuples(rels, Array(p0, p1, p2))
      assert(c >= res.shuffledTuples - 1e-9, s"($p0,$p1,$p2) beats optimum")
    }
  }
}
