package repro.bench

import repro.SparkSpec
import repro.core.adj.Adj
import repro.data.GraphData

class HarnessSpec extends SparkSpec {

  test("withBudget returns Right for a completing body") {
    val r = Harness.withBudget(spark, 60.0) { 1 + 1 }
    assert(r == Right(2))
  }

  test("withBudget reports failures as Left with the message") {
    val r = Harness.withBudget(spark, 60.0) { throw new RuntimeException("boom") }
    assert(r.isLeft)
    assert(r.swap.toOption.get.contains("boom"))
  }

  test("withBudget cancels an over-budget Spark job and reports timeout") {
    val sc = spark.sparkContext
    val t0 = System.nanoTime()
    val r = Harness.withBudget(spark, 2.0) {
      sc.parallelize(1 to 1000, 4).map { i =>
        var x = 0L
        while (!Thread.currentThread().isInterrupted) { x += i } // spin until killed
        x
      }.count()
    }
    val sec = (System.nanoTime() - t0) / 1e9
    assert(r == Left("timeout"))
    assert(sec < 60, s"cancellation took ${sec}s")
  }

  test("runCase on a tiny dataset completes and counts results") {
    val r = Harness.runCase(spark, "WB", "Q1", Adj.CoOptimization,
      budgetSec = 300, samples = 30)
    assert(r.failure.isEmpty && !r.timedOut, r.toString)
    assert(r.resultCount > 0)
    assert(r.totalSec > 0)
  }

  test("runCase releases the graph it caches") {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val r = Harness.runCase(spark, "WB", "Q1", Adj.CommunicationFirst, 300)
    assert(r.failure.isEmpty && !r.timedOut, r.toString)
    assert(sc.getPersistentRDDs.keySet.diff(before).isEmpty, sc.getPersistentRDDs)
  }

  test("co-optimization and communication-first agree on a tiny test-case") {
    val a = Harness.runCase(spark, "WB", "Q1", Adj.CoOptimization, 300, samples = 30)
    val b = Harness.runCase(spark, "WB", "Q1", Adj.CommunicationFirst, 300, samples = 30)
    assert(a.resultCount == b.resultCount)
  }

  test("formatTable renders one line per row plus a header") {
    val row = Harness.CaseResult("WB", "Q1", "Co-Optimization",
      1.0, 0.5, 2.0, 3.0, 6.5, 42L, timedOut = false, None)
    val s = Harness.formatTable("T", Seq(row, row), 100)
    assert(s.linesIterator.size == 4) // title + header + 2 rows
    assert(s.contains("Q1") && s.contains("42"))
  }

  test("formatTable renders timeouts in the paper's > budget style") {
    val row = Harness.CaseResult("WB", "Q4", "Communication-First",
      0, 0, 0, 0, 150, -1L, timedOut = true, None)
    val s = Harness.formatTable("T", Seq(row), 150)
    assert(s.contains("> 150"))
  }

  test("costTable completes every Co-Optimization case, and both strategies agree") {
    val rows = Harness.costTable(spark, "WB", 60, samples = 30)
    assert(rows.map(r => (r.query, r.strategy)) ==
      Seq("Q4", "Q5", "Q6").flatMap(q => Seq((q, "Co-Optimization"), (q, "Communication-First"))))
    rows.filter(_.strategy == "Co-Optimization").foreach(r => assert(!r.timedOut && r.failure.isEmpty, r.toString))
    rows.groupBy(_.query).foreach { case (q, rs) =>
      assert(rs.map(_.resultCount).distinct.size == 1, s"$q: ${rs.mkString(" / ")}")
    }
  }

  test("faults names an incomplete Co-Optimization case and a count mismatch") {
    def row(q: String, strategy: String, count: Long, timedOut: Boolean = false) =
      Harness.CaseResult("WB", q, strategy, 0, 0, 0, 0, 0, count, timedOut, None)
    val ok = Seq(row("Q4", "Co-Optimization", 7), row("Q4", "Communication-First", -1, timedOut = true))
    assert(Harness.faults(ok).isEmpty)
    val bad = Seq(row("Q4", "Co-Optimization", -1, timedOut = true),
      row("Q5", "Co-Optimization", 7), row("Q5", "Communication-First", 8))
    val f = Harness.faults(bad)
    assert(f.length == 2 && f(0).startsWith("Q4") && f(1).startsWith("Q5"), f)
  }

  test("datasetTable lists all six datasets") {
    val lines = Harness.datasetTable(spark).linesIterator.toVector
    assert(lines.length == 2 + GraphData.all.length, lines) // title + header + one per dataset
    assert(lines.drop(2).map(_.split("\\s+").head) == GraphData.all.map(_.name), lines)
  }
}
