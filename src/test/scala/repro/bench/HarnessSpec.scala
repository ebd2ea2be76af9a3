package repro.bench

import repro.SparkSpec
import repro.core.adj.Adj

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

  test("datasetTable lists all six datasets") {
    // Uses the two smallest generations only through GraphData.all — this is
    // exercised fully by the bench; here we only check the header contract.
    val row = Harness.CaseResult("AS", "Q5", "Co-Optimization",
      1, 1, 1, 1, 4, 10L, timedOut = false, None)
    assert(Harness.formatTable("x", Seq(row), 1).nonEmpty)
  }
}
