package adjbench

import java.io.{ByteArrayOutputStream, File, OutputStream, PrintStream}
import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files

import scala.collection.immutable.ListMap
import scala.collection.mutable

import org.apache.spark.AdjbenchAccess
import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.bench.Harness
import repro.core.adj.Adj
import repro.core.catalyst.AdjStrategy
import repro.data.GraphData

/** Benchmark entry point.
  *
  * {{{
  * adjbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  * }}}
  *
  * Closed loop: one driver thread sends one query at a time on
  * `local[nproc]`. Each query is timed from the call until its last row
  * has been consumed and digested, and the digest is checked against a
  * DuckDB reference computed before any timed window. The last line of
  * standard output is the JSON result.
  */
object Main {

  final case class Opts(workload: Workload, seed: Long, seconds: Int, trace: Boolean, out: File)

  def parse(args: Array[String]): Opts = {
    require(args.length % 2 == 0, "arguments come in --key value pairs")
    val kv = args.grouped(2).map(a => a(0).stripPrefix("--") -> a(1)).toMap
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace", "out")
    require(unknown.isEmpty, s"unknown options: ${unknown.mkString(", ")}")
    val w = kv.getOrElse("workload", throw new IllegalArgumentException("--workload is required"))
    require(Workload.byName.contains(w), s"unknown workload $w; one of ${Workload.all.map(_.name).mkString(", ")}")
    val seconds = kv.getOrElse("seconds", "10").toInt
    require(seconds >= 1, "--seconds must be at least 1")
    val trace = kv.getOrElse("trace", "0")
    require(trace == "0" || trace == "1", "--trace is 0 or 1")
    Opts(Workload.byName(w), kv.getOrElse("seed", "12").toLong, seconds, trace == "1",
      new File(kv.getOrElse("out", "adjbench/out")))
  }

  def main(args: Array[String]): Unit = {
    val opts =
      try parse(args)
      catch {
        case e: IllegalArgumentException =>
          System.err.println(s"adjbench: ${e.getMessage}")
          sys.exit(2)
      }
    val line =
      try new Bench(opts).run()
      catch {
        case e: Throwable =>
          e.printStackTrace()
          sys.exit(1)
      }
    println(line)
    Console.out.flush()
    sys.exit(0)
  }
}

/** One timed query. `sec` runs from the call to the last row digested;
  * `callSec` is the part until the call returned.
  */
final case class QueryRun(
    index: Int,
    traced: Boolean,
    sec: Double,
    callSec: Double,
    cpuSec: Double,
    rows: Long,
    signature: String,
    report: Option[Adj.Report],
    error: Option[String],
) {
  def ok: Boolean = error.isEmpty
}

final class Bench(o: Main.Opts) {
  import Bench._

  private val w      = o.workload
  private val spec   = Workload.graphSpec(o.seed)
  private val nproc  = Runtime.getRuntime.availableProcessors
  private val tracer = new Tracer
  private val t0     = System.nanoTime()

  def run(): String = {
    o.out.mkdirs()
    val localDir = new File(o.out, "spark-local")
    localDir.mkdirs()

    // Set-up, several times; the last session and graph are kept.
    val setups = (0 until SetupRepeats).map { i =>
      if (i > 0) SparkSession.active.stop()
      setup(localDir)
    }
    val (spark, graph) = (setups.last.spark, setups.last.graph)
    graph.createOrReplaceTempView(Workload.EdgeView)
    if (w.viaSql) spark.experimental.extraStrategies :+= AdjStrategy(spark)
    spark.conf.set("spark.repro.adj.samples", Workload.Samples.toString)

    val graphRows = graph.collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
    val (ref, refSec, refCached) = Reference.load(new File(o.out, "ref"), w, graphRows, nproc)

    val sparkTrace = if (o.trace) Some(new SparkTrace) else None
    val calib = if (o.trace) Layers.calibrate(spark, tracer) else Map.empty[String, Double]

    // The closed loop: the first query, then warm queries for `seconds`.
    val runs = mutable.ArrayBuffer.empty[QueryRun]
    runs += query(spark, graph, 0, ref, sparkTrace)
    val warmStart = System.nanoTime()
    while (runs.length < 1 + MinWarm ||
           (System.nanoTime() - warmStart < o.seconds * 1e9 && elapsed < SoftDeadlineSec)) {
      // Traced runs alternate traced and untraced queries, so the
      // difference of their medians is the tracing overhead.
      runs += query(spark, graph, runs.length, ref, sparkTrace.filter(_ => runs.length % 2 == 0))
    }

    val first = runs.head
    val warm  = runs.tail.toVector
    val okWarm = warm.filter(_.ok)
    val plans = Plans.summary(first, warm)
    val endToEnd: Layers.Metrics = ListMap(
      "query_s"       -> (median(okWarm.map(_.sec)), "s"),
      "first_query_s" -> (if (first.ok) first.sec else 0.0, "s"),
      "setup_s"       -> (median(setups.map(_.totalSec)), "s"),
      "cpu_s"         -> (median(okWarm.map(_.cpuSec)), "s"),
      "correct_rate"  -> (runs.count(_.ok).toDouble / runs.length, "ratio"),
    )

    val layers = sparkTrace.map { st =>
      Layers.measure(spark, graph, w, ref, tracer, st, runs.toVector, plans, setups.map(_.graphSec), calib)
    }
    val spans = sparkTrace.map { st =>
      AdjbenchAccess.drainListeners(spark.sparkContext)
      val own = tracer.spans
      own ++ st.spans(tracer, own)
    }

    val wrong = runs.count(_.error.exists(_.startsWith("wrong result")))
    val result = Json.obj(
      "correct"   -> (wrong == 0 && runs.exists(_.ok)),
      "attempted" -> runs.length,
      "failed"    -> runs.count(!_.ok),
      "metrics"   -> metricsJson(layers.getOrElse(endToEnd)),
    )

    val env = Json.obj(
      "nproc"               -> nproc,
      "default_parallelism" -> spark.sparkContext.defaultParallelism,
      "spark_driver_mem"    -> sys.env.getOrElse("SPARK_DRIVER_MEM", "unset"),
      "max_heap_mb"         -> Runtime.getRuntime.maxMemory / (1 << 20),
      "java"                -> System.getProperty("java.version"),
      "load"                -> s"closed loop, 1 driver thread, local[$nproc]",
    )
    val tag = s"${w.name}-seed${o.seed}-trace${if (o.trace) 1 else 0}"
    write(new File(o.out, s"$tag.json"), Json(Json.obj(
      "workload"  -> w.name,
      "seed"      -> o.seed,
      "seconds"   -> o.seconds,
      "env"       -> env,
      "graph"     -> Json.obj("spec" -> spec.toString, "edges" -> setups.last.edges),
      "setups"    -> setups.map(s => Json.obj("total_s" -> s.totalSec, "graph_s" -> s.graphSec)),
      "reference" -> Json.obj("rows" -> ref.rows, "sum" -> ref.sum, "sum_sq" -> ref.sumSq,
                              "duckdb_s" -> refSec, "cached" -> refCached),
      "queries"   -> runs.map(queryJson),
      "plans"     -> plans.json,
      "error_rate" -> runs.count(!_.ok).toDouble / runs.length,
      "query_s_samples" -> okWarm.length,
      "end_to_end" -> metricsJson(endToEnd),
      "per_layer" -> layers.map(metricsJson),
      "span_summary" -> spans.map(ss => Span.summary(ss).map { case (n, (c, tot, self)) =>
        n -> Json.obj("count" -> c, "total_s" -> tot, "self_s" -> self) }),
    )))
    spans.foreach { ss =>
      write(new File(o.out, s"$tag-spans.json"), Json(ss.map(s => Json.obj(
        "id" -> s.id, "parent" -> s.parent, "query" -> s.query, "name" -> s.name,
        "start_ns" -> (s.start - t0), "end_ns" -> (s.end - t0)))))
    }
    spark.stop()

    // Every metric by name and unit; the JSON result stays the last line.
    printTable(if (o.trace) "end-to-end (traced run)" else "end-to-end", endToEnd)
    layers.foreach(printTable("per-layer", _))
    Json(result)
  }

  private def elapsed: Double = (System.nanoTime() - t0) / 1e9

  private def setup(localDir: File): Setup = {
    val a = System.nanoTime()
    val spark = SparkSession.builder()
      .master(s"local[$nproc]")
      .appName("adjbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", localDir.getAbsolutePath)
      .getOrCreate()
    val b = System.nanoTime()
    val graph = GraphData.graph(spark, spec).cache()
    val edges = graph.count()
    val c = System.nanoTime()
    Setup(spark, graph, edges, (c - a) / 1e9, (c - b) / 1e9)
  }

  /** Runs the workload's query once, timing it and checking its digest. */
  private def query(spark: SparkSession, graph: DataFrame, i: Int, ref: Digest,
                    sparkTrace: Option[SparkTrace]): QueryRun = {
    val sc = spark.sparkContext
    sparkTrace.foreach(sc.addSparkListener)
    val captured = new ByteArrayOutputStream()
    val tee = new PrintStream(new Tee(System.err, captured), true, UTF_8)
    val traced = sparkTrace.isDefined
    def span[T](name: String)(body: => T): T =
      if (traced) tracer.span(name, i)(body) else body

    val out = Console.withErr(tee) {
      Harness.withBudget(spark, QueryBudgetSec) {
        sc.setLocalProperty(SparkTrace.QueryKey, i.toString)
        val cpu0 = cpuSec()
        val a = System.nanoTime()
        span("query") {
          val (df, report) = span("adj.call")(w.call(spark, graph))
          val b = System.nanoTime()
          val digest = span("adj.consume")(Digest.of(df))
          val c = System.nanoTime()
          ((c - a) / 1e9, (b - a) / 1e9, cpuSec() - cpu0, digest, report)
        }
      }
    }
    tee.flush()
    sparkTrace.foreach { st => AdjbenchAccess.drainListeners(sc); sc.removeSparkListener(st) }
    val signature = Plans.signature(captured.toString(UTF_8), out.toOption.flatMap(_._5))
    out match {
      case Right((sec, callSec, cpu, digest, report)) =>
        QueryRun(i, traced, sec, callSec, cpu, digest.rows, signature, report, Digest.mismatch(digest, ref))
      case Left(err) =>
        QueryRun(i, traced, 0.0, 0.0, 0.0, -1, signature, None, Some(err))
    }
  }

  private def queryJson(q: QueryRun) = Json.obj(
    "index" -> q.index, "traced" -> q.traced, "query_s" -> q.sec, "call_s" -> q.callSec,
    "cpu_s" -> q.cpuSec, "rows" -> q.rows, "ok" -> q.ok, "error" -> q.error,
    "plan" -> q.signature, "report" -> q.report.map(_.toString))
}

object Bench {

  /** Set-ups per run; `setup_s` is their median. */
  val SetupRepeats = 5

  /** Warm queries a run makes at least, however long they take. */
  val MinWarm = 2

  /** No warm query starts after this many seconds of the run. */
  val SoftDeadlineSec = 110.0

  /** A query that takes longer is cancelled and counted as failed. */
  val QueryBudgetSec = 100.0

  final case class Setup(spark: SparkSession, graph: DataFrame, edges: Long, totalSec: Double, graphSec: Double)

  def metricsJson(m: Layers.Metrics) =
    m.map { case (k, (v, unit)) => k -> Json.obj("value" -> v, "unit" -> unit) }

  def printTable(title: String, m: Layers.Metrics): Unit = {
    println(s"# $title")
    m.foreach { case (k, (v, unit)) => println(f"$k%-24s $v%16.6g $unit") }
  }

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
    }

  /** CPU seconds used by this process so far. */
  def cpuSec(): Double =
    ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime / 1e9

  def write(f: File, s: String): Unit = Files.write(f.toPath, (s + "\n").getBytes(UTF_8))

  /** Copies writes to two streams. */
  final class Tee(a: OutputStream, b: OutputStream) extends OutputStream {
    override def write(x: Int): Unit = { a.write(x); b.write(x) }
    override def write(x: Array[Byte], off: Int, len: Int): Unit = { a.write(x, off, len); b.write(x, off, len) }
    override def flush(): Unit = { a.flush(); b.flush() }
  }
}
