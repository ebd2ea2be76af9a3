package adjbench

import org.apache.spark.AdjbenchAccess
import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {

  test("self time subtracts the union of children clipped to the parent") {
    val spans = Seq(
      Span(1, -1, 0, "query", 0, 100),
      Span(2, 1, 0, "a", 10, 30),
      Span(3, 1, 0, "a", 20, 50),   // overlaps its sibling: counted once
      Span(4, 1, 0, "b", 90, 120),  // runs past the parent: clipped at 100
      Span(5, 2, 0, "c", 12, 18),
    )
    val self = Span.selfTimes(spans)
    assert(self == Map(1 -> 50L, 2 -> 14L, 3 -> 30L, 4 -> 30L, 5 -> 6L))
    val sum = Span.summary(spans)
    assert(sum("a")._1 == 2)
    assert(math.abs(sum("a")._2 - 50e-9) < 1e-15)
    assert(math.abs(sum("a")._3 - 44e-9) < 1e-15)
  }

  test("tracer spans nest by call structure") {
    val t = new Tracer
    t.span("outer", 3)(t.span("inner", 3)(()))
    val Seq(inner, outer) = t.spans
    assert(outer.parent == -1 && inner.parent == outer.id)
    assert(outer.start <= inner.start && inner.end <= outer.end)
  }

  test("the listener counts jobs, stages, tasks and shuffle records of a toy job") {
    val sc = LocalSpark.session.sparkContext
    val st = new SparkTrace
    val tracer = new Tracer
    sc.addSparkListener(st)
    try {
      sc.setLocalProperty(SparkTrace.QueryKey, "7")
      tracer.span("query", 7) {
        sc.parallelize(1 to 100, 4).map(x => (x % 3, x)).reduceByKey(_ + _, 2).count()
      }
      AdjbenchAccess.drainListeners(sc)
    } finally {
      sc.removeSparkListener(st)
      sc.setLocalProperty(SparkTrace.QueryKey, null)
    }
    val c = st.countsFor(7)
    assert(c.jobs == 1)
    assert(c.tasks == 6)                 // 4 map tasks + 2 reduce tasks
    assert(c.shuffleRecs == 4 * 3)       // map-side combine: 3 keys per map task
    assert(c.stageTaskSec.size == 2)

    val own = tracer.spans
    val all = own ++ st.spans(tracer, own)
    val byName = all.groupBy(_.name)
    assert(byName("spark.job").length == 1 && byName("spark.stage").length == 2 && byName("spark.task").length == 6)
    assert(byName("spark.job").head.parent == own.head.id)
    val stageIds = byName("spark.stage").map(_.id).toSet
    assert(byName("spark.task").forall(t => stageIds(t.parent)))
    assert(all.forall(_.query == 7))
  }
}
