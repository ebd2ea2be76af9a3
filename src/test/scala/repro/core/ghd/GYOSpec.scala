package repro.core.ghd

import org.scalacheck.{Gen, Prop, Test => ScTest}
import org.scalatest.funsuite.AnyFunSuite

class GYOSpec extends AnyFunSuite {

  test("single bag is acyclic") {
    assert(GYO.isAcyclic(Seq(Set(0, 1, 2))))
  }

  test("empty set of bags is acyclic") {
    assert(GYO.isAcyclic(Seq.empty))
  }

  test("a path of bags is acyclic") {
    assert(GYO.isAcyclic(Seq(Set(0, 1), Set(1, 2), Set(2, 3))))
  }

  test("a star of bags is acyclic") {
    assert(GYO.isAcyclic(Seq(Set(0, 1), Set(0, 2), Set(0, 3))))
  }

  test("the triangle of bags is cyclic") {
    assert(!GYO.isAcyclic(Seq(Set(0, 1), Set(1, 2), Set(0, 2))))
  }

  test("a 4-cycle of bags is cyclic") {
    assert(!GYO.isAcyclic(Seq(Set(0, 1), Set(1, 2), Set(2, 3), Set(3, 0))))
  }

  test("triangle plus covering bag is acyclic") {
    assert(GYO.isAcyclic(Seq(Set(0, 1), Set(1, 2), Set(0, 2), Set(0, 1, 2))))
  }

  test("duplicate bags are acyclic") {
    assert(GYO.isAcyclic(Seq(Set(0, 1), Set(0, 1))))
  }

  test("the paper's example decomposition bags are acyclic") {
    // {a,b,c}, {a,c,d}, {b,c,e} with a=0..e=4.
    assert(GYO.isAcyclic(Seq(Set(0, 1, 2), Set(0, 2, 3), Set(1, 2, 4))))
  }

  test("the paper's example original hypergraph is cyclic") {
    // R1(a,b,c) R2(a,d) R3(c,d) R4(b,e) R5(c,e).
    assert(!GYO.isAcyclic(Seq(Set(0, 1, 2), Set(0, 3), Set(2, 3), Set(1, 4), Set(2, 4))))
  }

  test("join tree of a path links overlapping bags") {
    val bags  = Vector(Set(0, 1), Set(1, 2), Set(2, 3))
    val edges = GYO.joinTree(bags)
    assert(edges.size == 2)
    assert(GYO.hasRunningIntersection(bags, edges))
  }

  test("join tree of the example decomposition has running intersection") {
    val bags  = Vector(Set(0, 1, 2), Set(0, 2, 3), Set(1, 2, 4))
    val edges = GYO.joinTree(bags)
    assert(edges.size == 2)
    assert(GYO.hasRunningIntersection(bags, edges))
  }

  test("join tree of a single bag is empty") {
    assert(GYO.joinTree(Vector(Set(0, 1))).isEmpty)
  }

  test("running intersection detects a broken tree") {
    val bags = Vector(Set(0, 1), Set(1, 2), Set(1, 3))
    // Chain 0-2 via bag 1 is fine; but connecting 0-2 directly and 2-1
    // makes attribute 1's holders {0,1,2} connected anyway. Use a genuinely
    // broken layout: attribute 9 in bags 0 and 2, tree 0-1, 1-2 without 9
    // in bag 1.
    val bad = Vector(Set(0, 9), Set(0, 1), Set(1, 9))
    assert(!GYO.hasRunningIntersection(bad, Set((0, 1), (1, 2))))
    assert(GYO.hasRunningIntersection(bags, Set((0, 1), (1, 2))))
  }

  test("max-weight spanning tree prefers heavier overlaps") {
    val bags  = Vector(Set(0, 1, 2), Set(1, 2, 3), Set(3, 4))
    val edges = GYO.joinTree(bags)
    assert(edges.contains((0, 1)) || edges.contains((1, 0)))
    assert(GYO.hasRunningIntersection(bags, edges))
  }

  // Definitions by search, for the properties below.

  /** BFS over the edges between `keep`'s own nodes reaches all of `keep`. */
  private def connectedBfs(keep: Set[Int], edges: Set[(Int, Int)]): Boolean =
    keep.isEmpty || {
      val seen  = collection.mutable.Set(keep.head)
      val queue = collection.mutable.Queue(keep.head)
      while (queue.nonEmpty) {
        val u = queue.dequeue()
        for ((a, b) <- edges.toSeq.flatMap(e => Seq(e, e.swap)) if a == u && keep(b) && seen.add(b))
          queue.enqueue(b)
      }
      seen.size == keep.size
    }

  private def ripBfs(bags: IndexedSeq[Set[Int]], edges: Set[(Int, Int)]): Boolean =
    bags.flatten.toSet.forall(a => connectedBfs(bags.indices.filter(bags(_)(a)).toSet, edges))

  private def isForest(n: Int, edges: Set[(Int, Int)]): Boolean = {
    val parent = Array.tabulate(n)(identity)
    def find(x: Int): Int = if (parent(x) == x) x else find(parent(x))
    edges.forall { case (i, j) =>
      val (ri, rj) = (find(i), find(j))
      ri != rj && { parent(ri) = rj; true }
    }
  }

  /** α-acyclic by definition: some edge subset of the complete graph on the
    * bags is a forest with running intersection.
    */
  private def acyclicBySearch(bags: IndexedSeq[Set[Int]]): Boolean = {
    val pairs = for (i <- bags.indices; j <- i + 1 until bags.length) yield (i, j)
    (0 until (1 << pairs.length)).exists { mask =>
      val edges = pairs.indices.filter(k => (mask >> k & 1) == 1).map(pairs).toSet
      isForest(bags.length, edges) && ripBfs(bags, edges)
    }
  }

  // ≤ 5 bags over ≤ 6 attributes; small bags make empty, duplicate,
  // contained and disconnected bags common.
  private val bagSets: Gen[Vector[Set[Int]]] = for {
    n    <- Gen.choose(0, 5)
    bags <- Gen.listOfN(n, Gen.choose(0, 3).flatMap(k => Gen.listOfN(k, Gen.choose(0, 5))).map(_.toSet))
  } yield bags.toVector

  /** Connected components of the graph that links bags sharing an attribute. */
  private def overlapComponents(bags: IndexedSeq[Set[Int]]): Int = {
    val parent = Array.tabulate(bags.length)(identity)
    def find(x: Int): Int = if (parent(x) == x) x else find(parent(x))
    for (i <- bags.indices; j <- i + 1 until bags.length if (bags(i) & bags(j)).nonEmpty) parent(find(i)) = find(j)
    bags.indices.count(i => find(i) == i)
  }

  /** The shapes a bag set shows, so each property can assert it saw them all. */
  private def shapes(bags: IndexedSeq[Set[Int]]): Set[String] = {
    val pairs = for (i <- bags.indices; j <- bags.indices if i != j) yield (bags(i), bags(j))
    val full  = bags.indices.filter(bags(_).nonEmpty).toSet
    val overlaps = for (i <- full; j <- full if i < j && (bags(i) & bags(j)).nonEmpty) yield (i, j)
    Set(
      Option.when(bags.exists(_.isEmpty))("empty bag"),
      Option.when(pairs.exists { case (a, b) => a.nonEmpty && a == b })("duplicate bags"),
      Option.when(pairs.exists { case (a, b) => a.nonEmpty && a.subsetOf(b) && a != b })("bag inside another"),
      Option.when(full.size > 1 && !connectedBfs(full, overlaps))("disconnected bags"),
    ).flatten
  }

  test("property (scalacheck): isAcyclic equals a search for a join forest") {
    val seen = collection.mutable.Set.empty[String]
    val prop = Prop.forAll(bagSets) { bags =>
      val acyclic = acyclicBySearch(bags)
      seen ++= shapes(bags) + (if (acyclic) "acyclic" else "cyclic")
      // joinTree spans every bag; its edges between bags that share no
      // attribute only link the overlap graph's components.
      val tree = GYO.joinTree(bags)
      GYO.isAcyclic(bags) == acyclic && isForest(bags.length, tree) &&
        tree.size == (bags.length - 1).max(0) && connectedBfs(bags.indices.toSet, tree) &&
        tree.count { case (i, j) => (bags(i) & bags(j)).isEmpty } == (overlapComponents(bags) - 1).max(0)
    }
    val res = ScTest.check(ScTest.Parameters.default.withMinSuccessfulTests(400), prop)
    assert(res.passed, res.status.toString)
    assert(seen == Set("empty bag", "duplicate bags", "bag inside another", "disconnected bags",
      "acyclic", "cyclic"), seen)
  }

  test("property (scalacheck): on random forests the edge counts equal BFS") {
    // Node i > 0 hangs off a random earlier node j (listed as (i, j) or
    // (j, i)), or off nothing.
    val bagsAndForest = for {
      bags  <- bagSets
      links <- Gen.listOfN(bags.length, Gen.zip(Gen.choose(0, 1 << 20), Gen.choose(0, 2)))
    } yield (bags, links.zipWithIndex.drop(1).collect {
      case ((r, 1), i) => (i, r % i)
      case ((r, 2), i) => (r % i, i)
    }.toSet)
    val seen = collection.mutable.Set.empty[String]
    val prop = Prop.forAllNoShrink(bagsAndForest) { case (bags, forest) =>
      val rip = ripBfs(bags, forest)
      seen ++= shapes(bags) + (if (rip) "running intersection" else "no running intersection")
      val subsets = (0 until (1 << bags.length)).map(m => bags.indices.filter(i => (m >> i & 1) == 1).toSet)
      subsets.foreach(k => if (k.size > 1) seen += (if (connectedBfs(k, forest)) "connected" else "not connected"))
      GYO.hasRunningIntersection(bags, forest) == rip &&
        subsets.forall(k => GYO.inducesConnectedSubtree(k, forest) == connectedBfs(k, forest))
    }
    val res = ScTest.check(ScTest.Parameters.default.withMinSuccessfulTests(400), prop)
    assert(res.passed, res.status.toString)
    assert(seen == Set("empty bag", "duplicate bags", "bag inside another", "disconnected bags",
      "running intersection", "no running intersection", "connected", "not connected"), seen)
  }
}
