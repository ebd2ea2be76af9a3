package repro.core.hcube

/** HCube share (partition-vector) optimization (Sec. III-B, Eq. (3)).
  *
  * Given relation schemas with sizes, finds the integer vector
  * p = (p_1..p_n) with Π p_i ≤ P minimizing the number of shuffled tuples
  *
  *   Σ_R |R| · dup(R, p),   dup(R, p) = Π_{A ∉ attrs(R)} p_A.
  *
  * Eq. (3)'s per-server memory constraint is not applied.
  *
  * P is small (≈ the cluster's core count), so exhaustive enumeration of
  * share vectors is exact and fast.
  */
object Shares {

  final case class Result(p: Array[Int], shuffledTuples: Double, cubes: Int) {
    override def toString: String = s"p=${p.mkString("(", ",", ")")} tuples=$shuffledTuples cubes=$cubes"
  }

  def dup(attrs: Set[Int], p: Array[Int]): Double = {
    var d = 1.0
    var a = 0
    while (a < p.length) { if (!attrs.contains(a)) d *= p(a); a += 1 }
    d
  }

  def shuffledTuples(rels: Seq[(Set[Int], Long)], p: Array[Int]): Double =
    rels.map { case (attrs, size) => size.toDouble * dup(attrs, p) }.sum

  /** Exhaustive search over share vectors.
    *
    * The hypercube count Π p_i is constrained to [budget, 4·budget]: at
    * least the requested parallelism (HCube assigns every server work — the
    * unconstrained minimum would always be the serial p = (1,…,1)), and at
    * most 4× so the per-cube task count stays bounded (the paper allows
    * P > N*, with cubes assigned to servers round-robin).
    *
    * @param rels      (attribute ids, tuple count) per relation
    * @param numAttrs  n = |attrs(Q)|
    * @param budget    P — the parallelism target (≥ 1)
    */
  def optimize(rels: Seq[(Set[Int], Long)], numAttrs: Int, budget: Int): Result = {
    require(budget >= 1)
    val maxCubes = 4 * budget
    var best: Result = null
    val p = Array.fill(numAttrs)(1)

    def rec(i: Int, prodSoFar: Int): Unit = {
      if (i == numAttrs) {
        if (prodSoFar >= budget) {
          val cost = shuffledTuples(rels, p)
          // Minimize shuffled tuples; tie-break toward fewer cubes (less
          // scheduling overhead once the parallelism floor is met), then
          // first-found (lexicographic) for determinism.
          if (best == null || cost < best.shuffledTuples - 1e-9 ||
              (math.abs(cost - best.shuffledTuples) <= 1e-9 && prodSoFar < best.cubes)) {
            best = Result(p.clone(), cost, prodSoFar)
          }
        }
      } else {
        var v = 1
        while (prodSoFar * v <= maxCubes) {
          p(i) = v
          rec(i + 1, prodSoFar * v)
          v += 1
        }
        p(i) = 1
      }
    }
    rec(0, 1)
    best
  }
}
