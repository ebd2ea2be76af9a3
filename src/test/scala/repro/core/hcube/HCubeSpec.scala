package repro.core.hcube

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, EOFException}
import java.util.concurrent.atomic.AtomicLong

import scala.math.Ordering.Implicits.seqOrdering

import org.apache.spark.{ShuffleDependency, SparkEnv, TestListenerBus}
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.scalacheck.{Gen, Prop, Test => ScTest}

import repro.SparkSpec
import repro.core.TestHelpers

class HCubeSpec extends SparkSpec {

  test("hash is stable and in range") {
    for (v <- Seq(0L, 1L, -5L, Long.MaxValue, Long.MinValue); b <- Seq(1, 2, 3, 7)) {
      val h = HCube.hash(v, b)
      assert(h >= 0 && h < b)
      assert(h == HCube.hash(v, b))
    }
  }

  test("hash with one bucket is always 0") {
    for (v <- -10L to 10L) assert(HCube.hash(v, 1) == 0)
  }

  test("cubesFor pins bound dimensions and spans free ones") {
    val p = Array(2, 2, 2)
    // Relation on attrs {0}: free dims 1, 2 → 4 cubes.
    val cubes = HCube.cubesFor(Vector(0), Array(7L), p)
    assert(cubes.length == 4)
    assert(cubes.distinct.length == 4)
    // All cubes share the same attr-0 coordinate.
    val c0 = HCube.hash(7L, 2)
    cubes.foreach(c => assert(c / 4 == c0))
  }

  test("cubesFor with all attributes bound yields exactly one cube") {
    val p = Array(2, 3, 2)
    val cubes = HCube.cubesFor(Vector(0, 1, 2), Array(1L, 2L, 3L), p)
    assert(cubes.length == 1)
    assert(cubes.head >= 0 && cubes.head < p.product)
  }

  test("cubesFor lists the cube ids in mixed-radix order over two free dimensions") {
    // Dims 1 and 3 are bound by the tuple (hash(2, 3) = 2, hash(3, 2) = 1);
    // dims 0 and 2 are free. Strides are 12, 4, 2, 1; the last free dim
    // counts fastest.
    val p = Array(3, 3, 2, 2)
    assert(HCube.hash(2L, 3) == 2 && HCube.hash(3L, 2) == 1)
    assert(HCube.cubesFor(Vector(1, 3), Array(2L, 3L), p) == Seq(9, 11, 21, 23, 33, 35))
  }

  test("cubesFor covers every output coordinate exactly once per tuple pair") {
    // For any joinable pair (t of R(a,b), s of S(b,c)), there must exist
    // exactly one cube receiving both.
    val p = Array(2, 3, 2)
    val t = Array(4L, 9L)  // R(a,b)
    val s = Array(9L, 5L)  // S(b,c)
    val ct = HCube.cubesFor(Vector(0, 1), t, p).toSet
    val cs = HCube.cubesFor(Vector(1, 2), s, p).toSet
    assert(ct.intersect(cs).size == (1 * 1 * 1) * 1) // pinned a,b and b,c overlap in 1 free-dim choice... a and c pinned by each side
    // Precisely: the common cubes pin a (from t), b (both), c (from s) → 1.
    assert(ct.intersect(cs).size == 1)
  }

  /** The (cube, relation index, tuple) copies a Pull shuffle delivers. */
  private def copies(out: org.apache.spark.rdd.RDD[(Int, (Int, Array[Array[Long]]))]) =
    out.flatMap { case (c, (ri, block)) => block.map(t => (c, ri, t.toVector)) }.collect()

  test("pull shuffle partitions every block to its cube id") {
    val sc = spark.sparkContext
    val g  = TestHelpers.randomGraph(10, 20, 1)
    val rel = Rel("R", Vector(0, 1), sc.parallelize(g, 3), g.length.toLong)
    val p = Array(2, 2)
    val out = HCube.shufflePull(Seq(rel), p)
    assert(out.getNumPartitions == 4)
    val ok = out.mapPartitionsWithIndex { (pid, it) =>
      Iterator.single(it.forall(_._1 == pid))
    }.collect()
    assert(ok.forall(identity))
    // Every tuple lands in exactly dup(R,p)=1 cube (both attrs bound).
    assert(copies(out).length == g.length)
  }

  /** The copies `cubesFor` assigns to each relation's tuples, as `copies` lists them. */
  private def assigned(rels: Seq[(Rel, Seq[Array[Long]])], p: Array[Int]) =
    rels.zipWithIndex.flatMap { case ((rel, ts), ri) =>
      ts.flatMap(t => HCube.cubesFor(rel.attrs, t, p).map(c => (c, ri, t.toVector)))
    }

  test("pull shuffle carries exactly the copies cubesFor assigns, in blocks") {
    val sc = spark.sparkContext
    val g0 = TestHelpers.randomGraph(12, 30, 2)
    val g  = g0 ++ g0.take(8) ++ g0.take(3) // rows held twice and three times
    val rel = Rel("R", Vector(0, 1), sc.parallelize(g, 3), g.length.toLong)
    val p = Array(2, 1)
    val expected = assigned(Seq(rel -> g), p)
    val out = HCube.shufflePull(Seq(rel), p)
    val got = copies(out)
    // Multisets: a dropped or doubled copy of a duplicated row must show.
    assert(got.toSeq.sorted == expected.sorted)
    // Blocks batch tuples: no more shuffle records than tuple copies.
    assert(out.count() <= got.length)
  }

  test("relations over one shared input are routed in one map pass, each by its own attributes") {
    val sc = spark.sparkContext
    val g0 = TestHelpers.randomGraph(10, 25, 3)
    val g  = g0.take(6).flatMap(t => Seq(t, t)) ++ g0.drop(6) // duplicated rows, side by side
    val shared = sc.parallelize(g, 3)
    val u  = TestHelpers.randomGraph(10, 15, 4)
    // Self-join R(a,b), S(b,c), T(a,c) on one RDD, plus U(c,a) on its own.
    val rels = Seq(
      Rel("R", Vector(0, 1), shared, g.length.toLong),
      Rel("S", Vector(1, 2), shared, g.length.toLong),
      Rel("T", Vector(0, 2), shared, g.length.toLong),
      Rel("U", Vector(2, 0), sc.parallelize(u, 2), u.length.toLong),
    )
    val p = Array(2, 3, 2)
    val out = HCube.shufflePull(rels, p)
    val expected = assigned(rels.map(r => r -> (if (r.name == "U") u else g)), p)
    assert(copies(out).toSeq.sorted == expected.sorted)
    // One map task per partition of each distinct input: 3 shared + 2 own.
    assert(out.dependencies.head.rdd.getNumPartitions == 5)
  }

  test("unary relation is replicated across the free dimension") {
    val sc  = spark.sparkContext
    val rel = Rel("S", Vector(0), sc.parallelize(Seq(Array(1L), Array(2L)), 1), 2L)
    val p = Array(1, 3) // attr 1 free → every tuple goes to 3 cubes
    val got = copies(HCube.shufflePull(Seq(rel), p))
    assert(got.length == 6)
    assert(got.toSet == (for (c <- 0 until 3; v <- Seq(1L, 2L)) yield (c, 0, Vector(v))).toSet)
  }

  test("two relations meet in the right cubes (joinability preserved)") {
    val sc = spark.sparkContext
    val r = Seq(Array(1L, 2L), Array(3L, 4L))
    val s = Seq(Array(2L, 9L), Array(4L, 7L))
    val rels = Seq(
      Rel("R", Vector(0, 1), sc.parallelize(r, 1), 2L),
      Rel("S", Vector(1, 2), sc.parallelize(s, 1), 2L),
    )
    val p = Array(2, 2, 2)
    val perCube = copies(HCube.shufflePull(rels, p)).groupBy(_._1)
    // For each joinable pair, some cube holds both tuples.
    for ((rt, st) <- Seq((r(0), s(0)), (r(1), s(1)))) {
      val hit = perCube.values.exists { ts =>
        ts.exists(x => x._2 == 0 && x._3 == rt.toVector) &&
          ts.exists(x => x._2 == 1 && x._3 == st.toVector)
      }
      assert(hit, s"pair ${rt.toVector} / ${st.toVector} never co-located")
    }
  }

  private type Record = (Int, (Int, Array[Array[Long]]))

  /** A record's cube, relation index and tuples, comparable by value. */
  private def flat(r: (Any, Any)) = {
    val (c, (ri, block)) = r.asInstanceOf[Record]
    (c, ri, block.toVector.map(_.toVector))
  }

  /** Writes `records` through one serialization stream and returns its bytes. */
  private def encode(records: Seq[Record]): Array[Byte] = {
    val bytes = new ByteArrayOutputStream()
    val out   = new BlockSerializer().newInstance().serializeStream(bytes)
    records.foreach { case (c, v) => out.writeKey(c).writeValue(v) }
    out.close()
    bytes.toByteArray
  }

  private def decoder(bytes: Array[Byte]) =
    new BlockSerializer().newInstance().deserializeStream(new ByteArrayInputStream(bytes))

  test("flat block encoding round-trips records of arity 1-3, extreme values and a block larger than its buffer") {
    val extremes = Seq(Long.MinValue, Long.MaxValue, -1L, 0L, 1L, 0x0102030405060708L)
    val rnd      = new scala.util.Random(7)
    val records: Seq[Record] = Seq(
      (0, (0, extremes.map(v => Array(v)).toArray)),
      (3, (1, extremes.map(v => Array(v, -v)).toArray)),
      (3, (2, extremes.combinations(3).map(_.toArray).toArray)),
      (Int.MaxValue, (0, Array.fill(100000)(Array.fill(3)(rnd.nextLong())))),
      (1, (7, Array(Array(Long.MaxValue, Long.MinValue)))),
      (2, (0, Array.empty[Array[Long]])),
    )
    val bytes    = encode(records)
    val expected = records.map(flat)
    // The key/value iterator Spark's shuffle reader uses ends cleanly at EOF.
    assert(decoder(bytes).asKeyValueIterator.map(flat).toVector == expected)
    // Reading record by record, the key after the last one is an EOFException.
    val in = decoder(bytes)
    assert(records.map(_ => flat((in.readKey[Any](), in.readValue[Any]()))) == expected)
    intercept[EOFException](in.readKey[Int]())
    // Whole-record writes read back as whole records.
    val objBytes = new ByteArrayOutputStream()
    val out      = new BlockSerializer().newInstance().serializeStream(objBytes)
    records.foreach(out.writeObject(_))
    out.close()
    assert(decoder(objBytes.toByteArray).asIterator.map(r => flat(r.asInstanceOf[(Any, Any)])).toVector == expected)
  }

  test("flat block encoding rejects a ragged block instead of writing it at the wrong width") {
    for (block <- Seq(Array(Array(1L, 2L), Array(3L)), Array(Array(1L), Array(2L, 3L)), Array(Array(1L, 2L), Array.empty[Long]))) {
      val out = new BlockSerializer().newInstance().serializeStream(new ByteArrayOutputStream())
      intercept[IllegalArgumentException](out.writeValue((0, block)))
    }
  }

  test("pull shuffle delivers the enumerated copies through the bypass and the sort-based shuffle writers") {
    val sc  = spark.sparkContext
    val g0  = TestHelpers.randomGraph(15, 60, 5)
    val g   = g0 ++ g0.take(4) // duplicated rows
    val rnd = new scala.util.Random(11)
    val bag = Vector.fill(80)(Array.fill(3)(rnd.nextInt(9).toLong - 4)) ++
      Seq(Array(Long.MinValue, Long.MaxValue, -1L), Array(0L, Long.MaxValue, Long.MinValue))
    val shared = sc.parallelize(g, 3)
    // A self-join R(a,b), S(b,c) over one input, and an arity-3 T(a,b,c) over another.
    val rels = Seq(
      Rel("R", Vector(0, 1), shared, g.length.toLong),
      Rel("S", Vector(1, 2), shared, g.length.toLong),
      Rel("T", Vector(0, 1, 2), sc.parallelize(bag, 2), bag.length.toLong),
    )
    val threshold = "spark.shuffle.spill.numElementsForceSpillThreshold"
    // ≤ 200 cubes take BypassMergeSortShuffleWriter; more take SortShuffleWriter,
    // made to spill every few records so its spill and merge streams run too.
    for ((p, handle, spill) <- Seq((Array(2, 3, 2), "BypassMergeSortShuffleHandle", false),
                                   (Array(15, 15, 1), "BaseShuffleHandle", true))) {
      val out = HCube.shufflePull(rels, p)
      assert(out.dependencies.head.asInstanceOf[ShuffleDependency[_, _, _]].shuffleHandle.getClass.getSimpleName == handle)
      val spilled  = new AtomicLong
      val listener = new SparkListener {
        override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
          if (e.taskMetrics != null) spilled.addAndGet(e.taskMetrics.diskBytesSpilled)
      }
      sc.addSparkListener(listener)
      if (spill) SparkEnv.get.conf.set(threshold, "8")
      val got =
        try copies(out)
        finally {
          SparkEnv.get.conf.remove(threshold)
          TestListenerBus.drain(sc)
          sc.removeSparkListener(listener)
        }
      val expected = assigned(rels.map(r => r -> (if (r.name == "T") bag else g)), p)
      assert(got.toSeq.sorted == expected.sorted, s"p = ${p.mkString(",")}")
      assert((spilled.get > 0) == spill, s"p = ${p.mkString(",")}: ${spilled.get} bytes spilled")
    }
  }

  test("property (scalacheck): cubesFor and a reused router list exactly the brute-force matching cubes") {
    val gen = for {
      n      <- Gen.choose(1, 4)
      p      <- Gen.listOfN(n, Gen.choose(1, 4))
      bound  <- Gen.someOf(0 until n)
      seed   <- Gen.long
      attrs   = new scala.util.Random(seed).shuffle(bound.toVector)
      value   = Gen.oneOf(Gen.choose(-50L, 50L), Gen.oneOf(Long.MinValue, Long.MaxValue, -1L, 0L), Gen.long)
      tuples <- Gen.nonEmptyListOf(Gen.listOfN(attrs.size, value).map(_.toArray))
    } yield (p.toArray, attrs, tuples)
    val prop = Prop.forAll(gen) { case (p, attrs, tuples) =>
      val stride = p.indices.map(a => p.drop(a + 1).product)
      def brute(t: Array[Long]) = (0 until p.product).filter { id =>
        attrs.indices.forall(i => id / stride(attrs(i)) % p(attrs(i)) == HCube.hash(t(i), p(attrs(i))))
      }
      val reused = new HCube.Router(attrs, p)
      tuples.forall { t =>
        val n = reused.route(t)
        HCube.cubesFor(attrs, t, p) == brute(t) && reused.ids.take(n).toSeq == brute(t)
      }
    }
    val res = ScTest.check(ScTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status.toString)
  }
}
