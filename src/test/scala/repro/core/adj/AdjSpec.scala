package repro.core.adj

import java.util.concurrent.ConcurrentLinkedQueue

import scala.jdk.CollectionConverters._

import org.apache.spark.{SparkException, TestListenerBus}
import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel

import repro.{Oracle, SparkSpec}
import repro.baselines.SparkSqlJoin
import repro.core.{CubeEvaluations, SparkTestData, TestHelpers}
import repro.core.exec.MultiwayJoin
import repro.core.ghd.{GHD, HyperTree}
import repro.core.hcube.{Rel, Shares}
import repro.core.hypergraph.{Hypergraph, QueryLibrary}

class AdjSpec extends SparkSpec {

  private val smallCfg = Adj.Config(samples = 60)

  /** Drains `df` once and checks that the report counted the rows drained. */
  private def drain(df: DataFrame, report: Adj.Report): Long = {
    val n = df.count()
    assert(report.resultCount == n, report.toString)
    n
  }

  /** Every traversal of `tree` whose prefixes all induce connected subtrees. */
  private def validTraversals(tree: HyperTree): Seq[Vector[Int]] = {
    def extend(prefix: Vector[Int]): Seq[Vector[Int]] =
      if (prefix.length == tree.nodes.length) Seq(prefix)
      else tree.nodes.indices
        .filter(v => !prefix.contains(v) && tree.inducesConnectedSubtree(prefix.toSet + v))
        .flatMap(v => extend(prefix :+ v))
    extend(Vector.empty)
  }

  /** Every valid traversal of `q`'s hypertree, times every set of multi-atom
    * nodes to pre-compute, with `Optimizer.attributeOrder`'s order.
    */
  private def validPlans(tree: HyperTree): Seq[Plan] = {
    val multi = tree.nodes.indices.filter(tree.nodes(_).atomIdxs.length > 1).toSet
    for (trav <- validTraversals(tree); pre <- multi.subsets().toSeq)
      yield Plan(pre, trav, Optimizer.attributeOrder(tree, trav), 0.0)
  }

  test("every valid plan runs and matches the DuckDB oracle on Q4, Q5 and Q6") {
    val g = TestHelpers.randomGraph(nodes = 12, edges = 26, seed = 43)
    val gdf = SparkTestData.graphDf(spark, g)
    for ((q, numPlans) <- Seq(QueryLibrary.q4 -> 32, QueryLibrary.q5 -> 32, QueryLibrary.q6 -> 8)) {
      val tree  = GHD.decompose(q)
      val rels  = SparkTestData.rels(spark, q, g, parts = 1)
      val plans = validPlans(tree)
      assert(plans.length == numPlans, tree.toString)
      val rows = plans.map { plan =>
        val (result, report) = Adj.runPlan(spark, q, rels, budget = 2, plan, tree.nodes)
        val got = result.map(_.toVector).collect().toSeq
        assert(report.resultCount == got.length, plan.toString)
        got
      }
      // One DuckDB reference per query: the first plan's rows against it,
      // every other plan's rows against the first's.
      val first = Adj.toDf(spark, spark.sparkContext.parallelize(rows.head.map(_.toArray), 2), q.attributes)
      Oracle.assertEquivalent(first, SparkSqlJoin.sql(q, "e"), "e" -> gdf)
      val expected = rows.head.map(_.mkString(",")).sorted
      plans.zip(rows).foreach { case (plan, got) => assert(got.map(_.mkString(",")).sorted == expected, plan.toString) }
    }
  }

  test("the final join's shares are optimized over the bags it actually reads") {
    val g = TestHelpers.randomGraph(nodes = 14, edges = 32, seed = 44)
    val q = QueryLibrary.q6
    val tree = GHD.decompose(q)
    val rels = SparkTestData.rels(spark, q, g)
    val plan = validPlans(tree).find(_.preCompute.nonEmpty).get
    val budget = 4
    val persisted = collection.mutable.ArrayBuffer.empty[RDD[Array[Long]]]
    val bags = plan.preCompute.map(v => v -> Adj.precomputeBag(spark, q, rels, tree.nodes(v), v, budget, persisted)).toMap
    val finalRels = tree.nodes.indices.flatMap(v => bags.get(v).fold[Seq[Rel]](tree.nodes(v).atomIdxs.map(rels))(Seq(_)))
    persisted.foreach(_.unpersist(blocking = false))
    val shares = Shares.optimize(finalRels.map(r => (r.attrs.toSet, r.size)), q.numAttrs, budget)
    val (result, report) = Adj.runPlan(spark, q, rels, budget, plan, tree.nodes)
    assert(report.shuffledTuples == shares.shuffledTuples)
    assert(result.getNumPartitions == shares.cubes) // one partition per cube
    assert(result.count() == report.resultCount)
  }

  test("each strategy prints one plan line in the format the benchmark parses") {
    // The pattern the benchmark's plan signatures read from the `spark.sql` path.
    val PlanLine =
      """\[adj\] plan: Plan\(pre=(\{[^}]*\}), traversal=([^,]*), ord=(.*?), est=[^)]*\) shares=p=\([^)]*\) tuples=(\S+)""".r.unanchored
    val g = TestHelpers.randomGraph(nodes = 16, edges = 40, seed = 45)
    val q = QueryLibrary.q6
    val data = Vector.fill(q.numAtoms)(spark.sparkContext.parallelize(g, 4))
    for (strategy <- Seq(Adj.CoOptimization, Adj.CommunicationFirst)) {
      val err = new java.io.ByteArrayOutputStream
      val (result, report) = Console.withErr(err)(Adj.run(spark, q, data, smallCfg.copy(strategy = strategy)))
      val lines = err.toString("UTF-8").linesIterator.filter(_.contains("[adj] plan:")).toSeq
      assert(lines.length == 1, lines)
      val p = report.plan
      lines.head match {
        case PlanLine(pre, traversal, ord, tuples) =>
          assert(pre == p.preCompute.toSeq.sorted.mkString("{", ",", "}"), lines.head)
          assert(traversal == p.traversal.mkString("<"), lines.head)
          assert(ord == p.ord.mkString(","), lines.head)
          assert(tuples == report.shuffledTuples.toString, lines.head)
        case other => fail(s"$strategy: the plan line does not parse: $other")
      }
      assert(result.count() == report.resultCount)
    }
  }

  test("co-optimized ADJ matches the oracle on every reported query") {
    val g = TestHelpers.randomGraph(nodes = 16, edges = 40, seed = 31)
    val gdf = SparkTestData.graphDf(spark, g)
    for ((name, q) <- QueryLibrary.reported) {
      val (df, report) = Adj.runOnGraph(spark, q, gdf, smallCfg)
      drain(df, report)
      Oracle.assertEquivalent(df, SparkSqlJoin.sql(q, "e"), "e" -> gdf)
      assert(report.totalSec > 0, s"$name: $report")
    }
  }

  test("communication-first ADJ (HCubeJ) matches the oracle on every reported query") {
    val g = TestHelpers.randomGraph(nodes = 16, edges = 40, seed = 32)
    val gdf = SparkTestData.graphDf(spark, g)
    for ((name, q) <- QueryLibrary.reported) {
      val (df, report) = Adj.runOnGraph(spark, q, gdf,
        smallCfg.copy(strategy = Adj.CommunicationFirst))
      drain(df, report)
      Oracle.assertEquivalent(df, SparkSqlJoin.sql(q, "e"), "e" -> gdf)
      assert(report.preComputingSec == 0.0, s"$name pre-computed under HCubeJ: $report")
      assert(report.plan.preCompute.isEmpty)
    }
  }

  test("communication-first runs a fixed plan without sampling or pre-computing") {
    val sc = spark.sparkContext
    val g = TestHelpers.randomGraph(nodes = 16, edges = 40, seed = 41)
    val q = QueryLibrary.q4
    val edges = sc.parallelize(g, 4)
    val data = Vector.fill(q.numAtoms)(edges)
    val jobs = new ConcurrentLinkedQueue[String]
    val listener = new SparkListener {
      // The result stage's name is the job's call site, e.g. "count at …".
      override def onJobStart(e: SparkListenerJobStart): Unit =
        jobs.add(e.stageInfos.maxBy(_.stageId).name)
    }
    TestListenerBus.drain(sc)
    sc.addSparkListener(listener)
    val (result, report) =
      try Adj.run(spark, q, data, smallCfg.copy(strategy = Adj.CommunicationFirst))
      finally { TestListenerBus.drain(sc); sc.removeSparkListener(listener) }
    // Only the input count and the final shuffle's map side ran.
    assert(jobs.asScala.toSeq.map(_.takeWhile(_ != ' ')) == Seq("count", "foreachPartition"), jobs)
    val plan = report.plan
    assert(plan.preCompute == Set.empty[Int])
    assert(plan.traversal == Vector.empty[Int])
    assert(plan.ord.toSeq == (0 until 5))
    assert(plan.estimatedSec == 0.0)
    val shares = Shares.optimize(q.edges.map(e => (e, g.length.toLong)), q.numAttrs,
      budget = math.max(2, sc.defaultParallelism))
    assert(report.shuffledTuples == shares.shuffledTuples)
    assert(result.getNumPartitions == shares.cubes) // one partition per cube
    assert(result.count() == report.resultCount)
  }

  test("both strategies match the naive join on two 4-cycles that share no attribute") {
    val g = TestHelpers.randomGraph(nodes = 8, edges = 14, seed = 5)
    val q = TestHelpers.twoFourCycles
    val expected = TestHelpers.naiveJoin(q, TestHelpers.bindGraph(q, g))
    assert(expected.size == 23716)
    val data = Vector.fill(q.numAtoms)(spark.sparkContext.parallelize(g, 4))
    for (strategy <- Seq(Adj.CoOptimization, Adj.CommunicationFirst)) {
      val (result, report) = Adj.run(spark, q, data, smallCfg.copy(strategy = strategy))
      val rows = result.map(_.toVector).collect()
      assert(report.resultCount == rows.length, strategy.toString)
      assert(rows.length == expected.size && rows.toSet == expected, strategy.toString)
    }
  }

  test("both strategies agree on the easy queries Q7-Q11") {
    val g = TestHelpers.randomGraph(nodes = 10, edges = 18, seed = 34)
    val gdf = SparkTestData.graphDf(spark, g)
    for ((name, q) <- QueryLibrary.all if name.drop(1).toInt >= 7) {
      val (a, ra) = Adj.runOnGraph(spark, q, gdf, smallCfg)
      val (b, rb) = Adj.runOnGraph(spark, q, gdf, smallCfg.copy(strategy = Adj.CommunicationFirst))
      assert(drain(a, ra) == drain(b, rb), name)
      assert(a.collect().map(_.toSeq).toSet == b.collect().map(_.toSeq).toSet, name)
    }
  }

  test("skewed graphs are handled correctly end to end") {
    val g = TestHelpers.skewedGraph(nodes = 40, edges = 120, seed = 35)
    val gdf = SparkTestData.graphDf(spark, g)
    for (q <- Seq(QueryLibrary.q1, QueryLibrary.q5)) {
      val (df, report) = Adj.runOnGraph(spark, q, gdf, smallCfg)
      drain(df, report)
      Oracle.assertEquivalent(df, SparkSqlJoin.sql(q, "e"), "e" -> gdf)
    }
  }

  test("the report accounts for all pipeline stages") {
    val g = TestHelpers.randomGraph(nodes = 14, edges = 30, seed = 36)
    val gdf = SparkTestData.graphDf(spark, g)
    val (df, report) = Adj.runOnGraph(spark, QueryLibrary.q4, gdf, smallCfg)
    drain(df, report)
    assert(report.optimizationSec > 0)
    assert(report.communicationSec > 0)
    assert(report.computationSec > 0)
    assert(report.preComputingSec >= 0)
    assert(math.abs(report.totalSec - (report.optimizationSec + report.preComputingSec +
      report.communicationSec + report.computationSec)) < 1e-9)
    assert(report.shuffledTuples > 0)
  }

  test("the plan's attribute order covers every attribute exactly once") {
    val g = TestHelpers.randomGraph(nodes = 12, edges = 26, seed = 37)
    val gdf = SparkTestData.graphDf(spark, g)
    for (q <- Seq(QueryLibrary.q2, QueryLibrary.q4, QueryLibrary.q6)) {
      val (df, report) = Adj.runOnGraph(spark, q, gdf, smallCfg)
      drain(df, report)
      assert(report.plan.ord.sorted.toSeq == (0 until q.numAttrs))
    }
  }

  test("empty graph produces empty results without failure") {
    val gdf = SparkTestData.graphDf(spark, Seq.empty)
    val (df, report) = Adj.runOnGraph(spark, QueryLibrary.q1, gdf, smallCfg)
    assert(drain(df, report) == 0)
  }

  test("a sampling budget below 1 is rejected") {
    Seq(0, -3).foreach { n =>
      val e = intercept[IllegalArgumentException](Adj.Config(samples = n))
      assert(e.getMessage.contains("samples"), e.getMessage)
    }
  }

  test("run rejects mismatched data arity") {
    val rdd = spark.sparkContext.parallelize(Seq(Array(1L, 2L)))
    intercept[IllegalArgumentException] {
      Adj.run(spark, QueryLibrary.q1, Vector(rdd), smallCfg)
    }
  }

  test("communication-first Adj.run leaves the join to the consumer, whose drain runs each cube once") {
    val g = TestHelpers.randomGraph(nodes = 16, edges = 40, seed = 38)
    val q = QueryLibrary.q4
    val data = Vector.fill(q.numAtoms)(spark.sparkContext.parallelize(g, 4))
    CubeEvaluations.during(spark.sparkContext) { evals =>
      val (result, report) = Adj.run(spark, q, data, smallCfg.copy(strategy = Adj.CommunicationFirst))
      assert(evals.perJoin().isEmpty, "a cube was evaluated before the result was drained")
      assert(report.resultCount == 0 && report.computationSec == 0.0)
      val n = result.count()
      val cubes = result.getNumPartitions // one partition per cube
      assert(evals.perJoin().values.toSeq == Seq((0 until cubes).map(_ -> 1).toMap))
      assert(report.timings.cubes.size == cubes && report.resultCount == n && report.computationSec > 0)
    }
  }

  test("a pre-computed bag's sub-join is evaluated once") {
    val g = TestHelpers.randomGraph(nodes = 16, edges = 40, seed = 39)
    val q = QueryLibrary.q6
    val tree = GHD.decompose(q)
    val v = tree.nodes.indexWhere(_.atomIdxs.length > 1)
    assert(v >= 0, tree.toString)
    val rs = SparkTestData.rels(spark, q, g)
    CubeEvaluations.during(spark.sparkContext) { evals =>
      val bag = Adj.precomputeBag(spark, q, rs, tree.nodes(v), v, budget = 8, collection.mutable.ArrayBuffer.empty)
      val Seq((bagJoin, bagCubes)) = evals.perJoin().toSeq
      assert(bagCubes.values.forall(_ == 1), bagCubes)
      assert(bag.rdd.count() == bag.size) // read from the persisted bag
      // The final join over the bag: its shuffle reads the persisted bag, so
      // neither the shuffle nor the drain evaluates the bag again.
      val others = tree.nodes.indices.filter(_ != v).flatMap(u => tree.nodes(u).atomIdxs.map(rs))
      val (result, t, _) = MultiwayJoin.executeOptimized(spark, bag +: others, (0 until q.numAttrs).toArray,
        q.numAttrs, cubeBudget = 2)
      bag.rdd.unpersist(blocking = true)
      assert(result.count() == t.resultCount)
      val all = evals.perJoin()
      assert(all.size == 2 && all(bagJoin) == bagCubes, all)
    }
  }

  test("a duplicated input tuple multiplies the rows it joins into") {
    // The triangle 1-2-3 in both directions plus the edge 3-4, with (1, 2)
    // twice: the 3 ordered triangles that read (1, 2) count twice, 6 + 3 rows.
    val g = Seq((1L, 2L), (2L, 3L), (1L, 3L), (3L, 4L)).flatMap { case (u, v) => Seq(Array(u, v), Array(v, u)) }
    val q = QueryLibrary.q1
    val data = Vector.fill(q.numAtoms)(spark.sparkContext.parallelize(g :+ Array(1L, 2L), 2))
    val (result, report) = Adj.run(spark, q, data, smallCfg.copy(strategy = Adj.CommunicationFirst))
    val rows = result.map(_.toVector).collect().toSeq
    assert(report.resultCount == rows.length)
    assert(rows.length == 9 && rows.count(_ == Vector(1L, 2L, 3L)) == 2, rows)
  }

  test("a pre-computed bag counts both copies of a duplicated input tuple") {
    val g = TestHelpers.randomGraph(nodes = 12, edges = 30, seed = 42)
    val q = QueryLibrary.q6
    val tree = GHD.decompose(q)
    val v = tree.nodes.indexWhere(_.atomIdxs.length > 1)
    val node = tree.nodes(v)
    val withDup = g ++ g.take(1)
    val bag = Adj.precomputeBag(spark, q, SparkTestData.rels(spark, q, withDup), node, v, budget = 8,
      collection.mutable.ArrayBuffer.empty)
    try {
      assert(bag.rdd.count() == bag.size)
      assert(bag.rdd.map(_.toVector).distinct().count() < bag.size, "the duplicate joins nothing")
      val sub = Hypergraph(node.atomIdxs.map(q.atoms))
      val gdf = SparkTestData.graphDf(spark, withDup)
      Oracle.assertEquivalent(Adj.toDf(spark, bag.rdd, node.attrs.toVector.sorted.map(q.attributes)),
        SparkSqlJoin.sql(sub, "e"), "e" -> gdf)
    } finally bag.rdd.unpersist(blocking = false)
  }

  test("runPlan releases the bags it pre-computed when a later bag fails") {
    val sc = spark.sparkContext
    val g = TestHelpers.randomGraph(nodes = 14, edges = 30, seed = 46)
    val q = QueryLibrary.q4
    val tree = GHD.decompose(q)
    assert(Seq(0, 1).forall(tree.nodes(_).atomIdxs.length > 1), tree.toString)
    // Node 1's atoms read an input that fails, so bag 1 fails after bag 0 is persisted.
    val failing = sc.parallelize(g, 2).map[Array[Long]](_ => throw new IllegalStateException("input failed"))
    val rels = SparkTestData.rels(spark, q, g).zipWithIndex.map { case (r, i) =>
      if (tree.nodes(1).atomIdxs.contains(i)) r.copy(rdd = failing) else r
    }
    val plan = validPlans(tree).find(_.preCompute == Set(0, 1)).get
    val before = sc.getPersistentRDDs.keySet
    intercept[SparkException](Adj.runPlan(spark, q, rels, budget = 2, plan, tree.nodes))
    assert(sc.getPersistentRDDs.keySet.diff(before).isEmpty, sc.getPersistentRDDs)
  }

  test("Adj.run releases the inputs it persisted and leaves cached ones alone") {
    val sc = spark.sparkContext
    val g = TestHelpers.randomGraph(nodes = 14, edges = 30, seed = 40)
    val cached = sc.parallelize(g, 4).cache()
    val fresh = sc.parallelize(g, 4)
    val before = sc.getPersistentRDDs.keySet
    for (strategy <- Seq(Adj.CoOptimization, Adj.CommunicationFirst)) {
      val (result, _) = Adj.run(spark, QueryLibrary.q1, Vector(cached, fresh, fresh),
        smallCfg.copy(strategy = strategy))
      result.count()
      // Entries can only disappear from the map (it holds RDDs weakly), so
      // "no new id" is "the same persisted RDDs as before".
      assert(sc.getPersistentRDDs.keySet.diff(before).isEmpty, s"$strategy left RDDs persisted")
      assert(cached.getStorageLevel != StorageLevel.NONE, s"$strategy unpersisted the caller's RDD")
      assert(fresh.getStorageLevel == StorageLevel.NONE)
    }
    cached.unpersist()
  }

  test("Adj.run releases the inputs it persisted when a later input fails") {
    val sc = spark.sparkContext
    val g = TestHelpers.randomGraph(nodes = 14, edges = 30, seed = 47)
    val failing = sc.parallelize(g, 2).map[Array[Long]](_ => throw new IllegalStateException("input failed"))
    val before = sc.getPersistentRDDs.keySet
    intercept[SparkException](Adj.run(spark, QueryLibrary.q1, Vector(sc.parallelize(g, 4), failing, failing), smallCfg))
    assert(sc.getPersistentRDDs.keySet.diff(before).isEmpty, sc.getPersistentRDDs)
  }
}
