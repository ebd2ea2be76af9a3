package adjbench

import java.util.Properties

import scala.collection.mutable

import org.apache.spark.scheduler._

/** One traced interval. Times are nanoseconds on the `System.nanoTime`
  * timeline; `parent` is -1 for a root span. Spans of one query share
  * `query`.
  */
final case class Span(id: Int, parent: Int, query: Int, name: String, start: Long, end: Long) {
  def dur: Long = end - start
}

object Span {

  /** Self time of every span: its duration minus the part of it that its
    * child spans cover (children are clipped to the parent interval, and
    * overlapping children — parallel tasks — count once).
    */
  def selfTimes(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val ivs = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.start, s.start), math.min(c.end, s.end)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var curA = Long.MinValue; var curB = Long.MinValue
      ivs.foreach { case (a, b) =>
        if (a > curB) { covered += math.max(0L, curB - curA); curA = a; curB = b }
        else curB = math.max(curB, b)
      }
      covered += math.max(0L, curB - curA)
      s.id -> (s.dur - covered)
    }.toMap
  }

  /** Per span name: (count, total seconds, total self seconds). */
  def summary(spans: Seq[Span]): Map[String, (Int, Double, Double)] = {
    val self = selfTimes(spans)
    spans.groupBy(_.name).map { case (n, ss) =>
      n -> ((ss.length, ss.map(_.dur).sum / 1e9, ss.map(s => self(s.id)).sum / 1e9))
    }
  }
}

/** Records the benchmark's own spans in memory. Spans nest by call
  * structure on the driver thread that opens them.
  */
final class Tracer {
  private val buf   = mutable.ArrayBuffer.empty[Span]
  private var stack = List.empty[Int]
  private var next  = 0

  def newId(): Int = synchronized { next += 1; next }

  def span[T](name: String, query: Int)(body: => T): T = {
    val id     = newId()
    val parent = synchronized(stack.headOption.getOrElse(-1))
    synchronized(stack ::= id)
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      synchronized { stack = stack.tail; buf += Span(id, parent, query, name, t0, t1) }
    }
  }

  def spans: Vector[Span] = synchronized(buf.toVector)
}

/** Spark-side counts for one query (or probe), keyed by the `adjbench.query`
  * local property the benchmark sets before running it.
  */
final class QueryCounts {
  var jobs          = 0
  var tasks         = 0
  var shuffleRecs   = 0L
  var shuffleBytes  = 0L
  var resultBytes   = 0L
  /** Task durations (seconds) per stage id. */
  val stageTaskSec = mutable.Map.empty[Int, mutable.ArrayBuffer[Double]]
}

/** Collects job, stage and task intervals and counts. Spark reports wall
  * times in epoch milliseconds; they are moved onto the nanoTime timeline
  * with an offset taken when the listener is created.
  */
final class SparkTrace extends SparkListener {
  import SparkTrace.{Interval, QueryKey}

  private val offsetNs = System.nanoTime() - System.currentTimeMillis() * 1000000L
  private def ns(ms: Long): Long = ms * 1000000L + offsetNs

  private val counts    = mutable.Map.empty[Int, QueryCounts]
  private val jobQuery  = mutable.Map.empty[Int, Int]
  private val jobStart  = mutable.Map.empty[Int, Long]
  private val stageJob  = mutable.Map.empty[Int, Int]
  private val intervals = mutable.ArrayBuffer.empty[Interval]

  private def queryOf(p: Properties): Int =
    Option(p).flatMap(pp => Option(pp.getProperty(QueryKey))).map(_.toInt).getOrElse(-1)

  private def queryOfStage(stageId: Int): Int = stageJob.get(stageId).flatMap(jobQuery.get).getOrElse(-1)

  def countsFor(query: Int): QueryCounts = synchronized(counts.getOrElseUpdate(query, new QueryCounts))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val q = queryOf(e.properties)
    jobQuery(e.jobId) = q
    jobStart(e.jobId) = ns(e.time)
    e.stageIds.foreach(s => stageJob.getOrElseUpdate(s, e.jobId))
    countsFor(q).jobs += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    val start = jobStart.getOrElse(e.jobId, ns(e.time))
    intervals += Interval("job", e.jobId, jobQuery.getOrElse(e.jobId, -1), start, ns(e.time), -1)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val si = e.stageInfo
    for (a <- si.submissionTime; b <- si.completionTime)
      intervals += Interval("stage", si.stageId, queryOfStage(si.stageId), ns(a), ns(b), -1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val q = queryOfStage(e.stageId)
    val c = countsFor(q)
    val ti = e.taskInfo
    c.tasks += 1
    c.stageTaskSec.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += (ti.finishTime - ti.launchTime) / 1e3
    Option(e.taskMetrics).foreach { m =>
      c.shuffleRecs  += m.shuffleWriteMetrics.recordsWritten
      c.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      c.resultBytes  += m.resultSize
    }
    intervals += Interval("task", ti.taskId.toInt, q, ns(ti.launchTime), ns(ti.finishTime), e.stageId)
  }

  /** Turns the recorded intervals into spans: a task's parent is its
    * stage, a stage's parent its job, and a job's parent the innermost
    * benchmark span of the same query that contains the job's start.
    */
  def spans(tracer: Tracer, own: Seq[Span]): Vector[Span] = synchronized {
    val byQuery = own.groupBy(_.query)
    def of(kind: String) = intervals.filter(_.kind == kind).toVector
    val jobSpan = of("job").map { j =>
      val enclosing = byQuery.getOrElse(j.query, Nil).filter(s => s.start <= j.start && j.start <= s.end)
      val parent    = if (enclosing.isEmpty) -1 else enclosing.minBy(_.dur).id
      j.id -> Span(tracer.newId(), parent, j.query, "spark.job", j.start, j.end)
    }.toMap
    val stageSpan = of("stage").map { s =>
      val parent = stageJob.get(s.id).flatMap(jobSpan.get).map(_.id).getOrElse(-1)
      s.id -> Span(tracer.newId(), parent, s.query, "spark.stage", s.start, s.end)
    }.toMap
    val tasks = of("task").map { t =>
      Span(tracer.newId(), stageSpan.get(t.owner).map(_.id).getOrElse(-1), t.query, "spark.task", t.start, t.end)
    }
    jobSpan.values.toVector ++ stageSpan.values ++ tasks
  }
}

object SparkTrace {
  /** Local property naming the query (or probe) a Spark job belongs to. */
  val QueryKey = "adjbench.query"

  /** A job, stage or task interval; `owner` is a task's stage id. */
  private final case class Interval(kind: String, id: Int, query: Int, start: Long, end: Long, owner: Int)
}
