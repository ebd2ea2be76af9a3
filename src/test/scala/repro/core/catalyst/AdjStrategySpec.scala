package repro.core.catalyst

import java.util.concurrent.ConcurrentLinkedQueue

import scala.jdk.CollectionConverters._

import org.apache.spark.TestListenerBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{LongType, StructField, StructType}

import repro.{Oracle, SparkSpec}
import repro.baselines.SparkSqlJoin
import repro.core.{SparkTestData, TestHelpers}
import repro.core.hypergraph.QueryLibrary

class AdjStrategySpec extends SparkSpec {

  /** A session clone with the ADJ strategy installed. */
  private lazy val adjSession: SparkSession = {
    val s = spark.newSession()
    s.conf.set("spark.sql.autoBroadcastJoinThreshold", -1)
    s.conf.set("spark.repro.adj.samples", "40")
    s.experimental.extraStrategies = Seq(AdjStrategy(s))
    s
  }

  private def planString(df: DataFrame): String =
    df.queryExecution.executedPlan.toString

  /** The jobs that read ADJ's inputs while `df` is collected: `Adj.run`'s
    * input counts and the sampler's collects, sorted by name.
    */
  private def inputJobs(df: DataFrame): Seq[String] = {
    val sc   = adjSession.sparkContext
    val jobs = new ConcurrentLinkedQueue[String]
    val listener = new SparkListener {
      // The result stage's name is the job's call site, e.g. "count at Adj.scala:82".
      override def onJobStart(e: SparkListenerJobStart): Unit =
        jobs.add(e.stageInfos.maxBy(_.stageId).name)
    }
    TestListenerBus.drain(sc)
    sc.addSparkListener(listener)
    try df.collect()
    finally { TestListenerBus.drain(sc); sc.removeSparkListener(listener) }
    jobs.asScala.toSeq.map(_.split(' ')).collect {
      case Array(op, "at", site) if site.startsWith("Adj.scala") || site.startsWith("Sampler.scala") => op
    }.sorted
  }

  /** Plans `sql` with `key` set to `value`, then restores the setting. */
  private def planWith(key: String, value: String, sql: String): Unit = {
    val old = adjSession.conf.getOption(key)
    adjSession.conf.set(key, value)
    try adjSession.sql(sql).queryExecution.executedPlan
    finally old.fold(adjSession.conf.unset(key))(adjSession.conf.set(key, _))
  }

  test("a 3-way equi-join is planned as AdjJoin") {
    val g = TestHelpers.randomGraph(nodes = 14, edges = 30, seed = 61)
    SparkTestData.graphDf(adjSession, g).createOrReplaceTempView("edges_cat")
    val df = adjSession.sql(SparkSqlJoin.sql(QueryLibrary.q1, "edges_cat"))
    assert(planString(df).contains("AdjJoin"), planString(df))
  }

  test("the ADJ-planned triangle query returns oracle-correct results") {
    val g = TestHelpers.randomGraph(nodes = 16, edges = 40, seed = 62)
    val gdf = SparkTestData.graphDf(adjSession, g)
    gdf.createOrReplaceTempView("edges_cat2")
    val df = adjSession.sql(SparkSqlJoin.sql(QueryLibrary.q1, "edges_cat2"))
    Oracle.assertEquivalent(df, SparkSqlJoin.sql(QueryLibrary.q1, "e"), "e" -> gdf)
  }

  test("the ADJ-planned Q4 query returns oracle-correct results") {
    val g = TestHelpers.randomGraph(nodes = 14, edges = 32, seed = 63)
    val gdf = SparkTestData.graphDf(adjSession, g)
    gdf.createOrReplaceTempView("edges_cat3")
    val df = adjSession.sql(SparkSqlJoin.sql(QueryLibrary.q4, "edges_cat3"))
    assert(planString(df).contains("AdjJoin"), planString(df))
    Oracle.assertEquivalent(df, SparkSqlJoin.sql(QueryLibrary.q4, "e"), "e" -> gdf)
  }

  test("binary joins are left to the default planner") {
    val g = TestHelpers.randomGraph(nodes = 12, edges = 24, seed = 64)
    SparkTestData.graphDf(adjSession, g).createOrReplaceTempView("edges_cat4")
    val df = adjSession.sql(
      "SELECT a.src, a.dst, b.dst AS d2 FROM edges_cat4 a JOIN edges_cat4 b ON a.dst = b.src")
    assert(!planString(df).contains("AdjJoin"))
  }

  test("non-Long columns fall back to the default planner") {
    val g = TestHelpers.randomGraph(nodes = 10, edges = 20, seed = 66)
    val gdf = SparkTestData.graphDf(adjSession, g)
      .selectExpr("CAST(src AS INT) AS src", "CAST(dst AS INT) AS dst")
    gdf.createOrReplaceTempView("edges_cat6")
    val df = adjSession.sql(SparkSqlJoin.sql(QueryLibrary.q1, "edges_cat6"))
    assert(!planString(df).contains("AdjJoin"))
  }

  test("a duplicated row joins as often as under SQL bag semantics") {
    // The triangle 0-1-2 in both directions, plus a second copy of (0, 1).
    val edges = Seq((0L, 1L), (1L, 2L), (2L, 0L)).flatMap { case (u, v) => Seq(Array(u, v), Array(v, u)) }
    val gdf = SparkTestData.graphDf(adjSession, edges :+ Array(0L, 1L), parts = 2)
    gdf.createOrReplaceTempView("edges_dup")
    val df = adjSession.sql(SparkSqlJoin.sql(QueryLibrary.q1, "edges_dup"))
    assert(planString(df).contains("AdjJoin"), planString(df))
    Oracle.assertEquivalent(df, SparkSqlJoin.sql(QueryLibrary.q1, "e"), "e" -> gdf)
  }

  test("NULL join keys match nothing, also without inferred IsNotNull filters") {
    // A triangle over 0, 1, 2, plus the edge 1-3 and an edge from 3 to NULL.
    // Read as 0, the NULL would close a second triangle 0-1-3.
    val edges = Seq((0L, 1L), (1L, 2L), (2L, 0L), (1L, 3L)).flatMap { case (u, v) => Seq(Row(u, v), Row(v, u)) }
    val schema = StructType(Seq(StructField("src", LongType), StructField("dst", LongType)))
    val gdf = adjSession.createDataFrame(
      adjSession.sparkContext.parallelize(edges ++ Seq(Row(null, 3L), Row(3L, null)), 2), schema)
    gdf.createOrReplaceTempView("edges_null")
    adjSession.conf.set("spark.sql.optimizer.excludedRules",
      "org.apache.spark.sql.catalyst.optimizer.InferFiltersFromConstraints")
    try {
      val df = adjSession.sql(SparkSqlJoin.sql(QueryLibrary.q1, "edges_null"))
      assert(planString(df).contains("AdjJoin"), planString(df))
      Oracle.assertEquivalent(df, SparkSqlJoin.sql(QueryLibrary.q1, "e"), "e" -> gdf)
    } finally adjSession.conf.unset("spark.sql.optimizer.excludedRules")
  }

  test("a nullable column that joins nothing is left to the default planner") {
    val g = TestHelpers.randomGraph(nodes = 12, edges = 26, seed = 68)
    val gdf = SparkTestData.graphDf(adjSession, g)
    gdf.createOrReplaceTempView("edges_cat8")
    val tagged = adjSession.sql(
      "SELECT src, dst, CASE WHEN src < dst THEN src END AS w FROM edges_cat8")
    tagged.createOrReplaceTempView("tagged_cat8")
    def sql(t: String, e: String) =
      s"SELECT t.src AS a, t.dst AS b, e1.dst AS c, t.w AS w FROM $t t, $e e1, $e e2 " +
        "WHERE t.dst = e1.src AND e1.dst = e2.dst AND t.src = e2.src"
    val df = adjSession.sql(sql("tagged_cat8", "edges_cat8"))
    assert(!planString(df).contains("AdjJoin"), planString(df))
    Oracle.assertEquivalent(df, sql("t", "e"), "t" -> tagged, "e" -> gdf)
  }

  test("identical leaves are read once, nondeterministic ones once each") {
    val g = TestHelpers.randomGraph(nodes = 16, edges = 40, seed = 69)
    val gdf = SparkTestData.graphDf(adjSession, g)
    gdf.createOrReplaceTempView("edges_self")
    val df = adjSession.sql(SparkSqlJoin.sql(QueryLibrary.q1, "edges_self"))
    assert(planString(df).contains("AdjJoin"), planString(df))
    assert(inputJobs(df) == Seq("collect", "count"))
    Oracle.assertEquivalent(df, SparkSqlJoin.sql(QueryLibrary.q1, "e"), "e" -> gdf)
    // Each leaf draws its own rand() values, so the leaves are not equal.
    adjSession.sql("SELECT * FROM edges_self WHERE rand(7) < 0.9").createOrReplaceTempView("edges_rand")
    val rnd = adjSession.sql(SparkSqlJoin.sql(QueryLibrary.q1, "edges_rand"))
    assert(planString(rnd).contains("AdjJoin"), planString(rnd))
    assert(inputJobs(rnd) == Seq.fill(3)("collect") ++ Seq.fill(3)("count"))
  }

  test("a sampling budget below 1 is rejected") {
    SparkTestData.graphDf(adjSession, TestHelpers.randomGraph(nodes = 12, edges = 24, seed = 70))
      .createOrReplaceTempView("edges_samples")
    val sql = SparkSqlJoin.sql(QueryLibrary.q1, "edges_samples")
    Seq("0", "-3").foreach { n =>
      val e = intercept[IllegalArgumentException](planWith("spark.repro.adj.samples", n, sql))
      assert(e.getMessage.contains("samples"), e.getMessage)
    }
  }
}
