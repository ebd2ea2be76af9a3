package repro.bench

import org.apache.spark.sql.SparkSession

import repro.core.adj.Adj
import repro.core.hypergraph.QueryLibrary
import repro.data.GraphData

/** Shared benchmark harness for the Tables II–IV reproduction: runs one
  * (dataset, query, strategy) test-case under a wall-clock budget and
  * reports the paper's cost breakdown columns.
  *
  * A test-case that exceeds the budget is cancelled through its Spark job
  * group (Leapfrog checks for task interruption) and reported as
  * "> budget", mirroring the paper's "> 43200" entries.
  */
object Harness {

  /** One row of a Tables II–IV style result. */
  final case class CaseResult(
      dataset: String,
      query: String,
      strategy: String,
      optimizationSec: Double,
      preComputingSec: Double,
      communicationSec: Double,
      computationSec: Double,
      totalSec: Double,
      resultCount: Long,
      timedOut: Boolean,
      failure: Option[String],
  ) {
    def fmt(v: Double): String = if (timedOut) "-" else f"$v%.1f"
    def totalStr(budget: Double): String =
      if (timedOut) s"> ${budget.toInt}" else f"$totalSec%.1f"
  }

  /** The session every job runs in: master `SPARK_MASTER` (default
    * `local[*]`), broadcast joins off.
    */
  def session(appName: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  /** Runs `body` in a dedicated thread inside a cancellable job group.
    *
    * @return Right(result) on completion, Left(errorMessage) on failure,
    *         or Left("timeout") if the budget elapsed (the group is
    *         cancelled with task interruption).
    */
  def withBudget[T](spark: SparkSession, budgetSec: Double)(body: => T): Either[String, T] = {
    val group = s"bench-${System.nanoTime()}"
    @volatile var out: Either[String, T] = Left("did not run")
    val t = new Thread(() => {
      spark.sparkContext.setJobGroup(group, "bench case", interruptOnCancel = true)
      try out = Right(body)
      catch { case e: Throwable => out = Left(s"${e.getClass.getSimpleName}: ${e.getMessage}") }
      finally spark.sparkContext.clearJobGroup()
    }, group)
    t.setDaemon(true)
    t.start()
    t.join(math.max(1L, (budgetSec * 1000).toLong))
    if (t.isAlive) {
      spark.sparkContext.cancelJobGroup(group)
      t.join(60000)
      Left("timeout")
    } else out
  }

  /** Runs one test-case: every atom of the query bound to the dataset graph. */
  def runCase(
      spark: SparkSession,
      dataset: String,
      queryName: String,
      strategy: Adj.Strategy,
      budgetSec: Double,
      samples: Int = Adj.Config().samples,
  ): CaseResult = {
    val spec  = GraphData.byName(dataset)
    val query = QueryLibrary.all(queryName)
    val stratName = strategy match {
      case Adj.CoOptimization     => "Co-Optimization"
      case Adj.CommunicationFirst => "Communication-First"
    }
    val graph = GraphData.graph(spark, spec).cache()
    val outcome =
      try {
        graph.count() // load the database "into memory" — excluded, as in the paper
        withBudget(spark, budgetSec) {
          val (df, report) = Adj.runOnGraph(spark, query, graph,
            Adj.Config(strategy = strategy, samples = samples))
          df.count() // the final join runs here; the report's computation times it
          report
        }
      } finally graph.unpersist()
    outcome match {
      case Right(r) =>
        CaseResult(dataset, queryName, stratName, r.optimizationSec, r.preComputingSec,
          r.communicationSec, r.computationSec, r.totalSec, r.resultCount, timedOut = false, None)
      case Left("timeout") =>
        CaseResult(dataset, queryName, stratName, 0, 0, 0, 0, budgetSec, -1,
          timedOut = true, None)
      case Left(err) =>
        CaseResult(dataset, queryName, stratName, 0, 0, 0, 0, 0, -1,
          timedOut = false, Some(err))
    }
  }

  /** Renders rows in the layout of the paper's Tables II–IV. */
  def formatTable(title: String, rows: Seq[CaseResult], budgetSec: Double): String = {
    val sb = new StringBuilder
    sb ++= s"== $title ==\n"
    sb ++= f"${"query"}%-5s ${"strategy"}%-20s ${"Optimization"}%13s ${"Pre-Computing"}%14s " +
      f"${"Communication"}%14s ${"Computation"}%12s ${"Total"}%9s ${"|result|"}%10s\n"
    rows.foreach { r =>
      val cells =
        if (r.failure.isDefined) Seq("FAILED", r.failure.get.take(40), "", "", "")
        else Seq(r.fmt(r.optimizationSec), r.fmt(r.preComputingSec),
          r.fmt(r.communicationSec), if (r.timedOut) s"> ${budgetSec.toInt}" else f"${r.computationSec}%.1f",
          r.totalStr(budgetSec))
      sb ++= f"${r.query}%-5s ${r.strategy}%-20s ${cells(0)}%13s ${cells(1)}%14s " +
        f"${cells(2)}%14s ${cells(3)}%12s ${cells(4)}%9s ${if (r.resultCount >= 0) r.resultCount.toString else "-"}%10s\n"
    }
    sb.result()
  }

  /** Table II/III/IV driver: Q4–Q6 under both strategies on one dataset. */
  def costTable(spark: SparkSession, dataset: String, budgetSec: Double,
                samples: Int = Adj.Config().samples): Seq[CaseResult] = {
    for {
      q     <- Seq("Q4", "Q5", "Q6")
      strat <- Seq(Adj.CoOptimization, Adj.CommunicationFirst)
    } yield runCase(spark, dataset, q, strat, budgetSec, samples)
  }

  /** What makes a cost table wrong: a Co-Optimization case that failed or
    * timed out, or a query that both strategies finished with different
    * result counts.
    */
  def faults(rows: Seq[CaseResult]): Seq[String] = {
    val incomplete = rows.filter(r => r.strategy == "Co-Optimization" && (r.timedOut || r.failure.isDefined))
      .map(r => s"${r.query}: co-optimization did not complete: $r")
    val disagreeing = rows.filter(r => !r.timedOut && r.failure.isEmpty).groupBy(_.query).toSeq.sortBy(_._1)
      .collect { case (q, rs) if rs.map(_.resultCount).distinct.size > 1 =>
        s"$q: strategies disagree (${rs.map(_.resultCount).mkString(" vs ")})"
      }
    incomplete ++ disagreeing
  }

  /** Table I driver: tuple counts and sizes of the six datasets. */
  def datasetTable(spark: SparkSession): String = {
    val sb = new StringBuilder
    sb ++= "== Table I: Datasets ==\n"
    sb ++= f"${"Dataset"}%-8s ${"|R| (x10^3)"}%12s ${"Size (MB)"}%10s\n"
    GraphData.all.foreach { spec =>
      val n = GraphData.graph(spark, spec).count()
      sb ++= f"${spec.name}%-8s ${n / 1e3}%12.1f ${GraphData.sizeMb(n)}%10.2f\n"
    }
    sb.result()
  }
}
