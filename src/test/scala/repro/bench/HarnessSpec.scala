package repro.bench

import repro.SparkSpec
import repro.core.TestHelpers
import repro.core.adj.Adj
import repro.core.hypergraph.QueryLibrary
import repro.data.GraphData

class HarnessSpec extends SparkSpec {

  /** The report of a co-optimized triangle query on a small random graph,
    * its result drained so that the report holds the count.
    */
  private def report(seed: Long): Adj.Report = {
    val g = spark.sparkContext.parallelize(TestHelpers.randomGraph(nodes = 12, edges = 40, seed = seed), 2)
    val (result, r) = Adj.run(spark, QueryLibrary.q1, Vector.fill(3)(g))
    result.count()
    r
  }

  /** Two reports whose result counts differ. */
  private lazy val (small, large) = {
    val (a, b) = (report(3), report(4))
    assert(a.resultCount > 0 && a.resultCount != b.resultCount, s"$a / $b")
    (a, b)
  }

  private def row(q: String, strategy: Adj.Strategy, outcome: Either[String, Adj.Report]) =
    Harness.CaseResult("WB", q, strategy, outcome)

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
    val r = Harness.runCase(spark, "WB", "Q1", Adj.CoOptimization, budgetSec = 300)
    val rep = r.outcome.fold(e => fail(s"no report: $e"), identity)
    assert(rep.resultCount > 0)
    assert(rep.totalSec > 0)
  }

  test("runCase releases the graph it caches") {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val r = Harness.runCase(spark, "WB", "Q1", Adj.CommunicationFirst, 300)
    assert(r.outcome.isRight, r.toString)
    assert(sc.getPersistentRDDs.keySet.diff(before).isEmpty, sc.getPersistentRDDs)
  }

  test("co-optimization and communication-first agree on a tiny test-case") {
    val a = Harness.runCase(spark, "WB", "Q1", Adj.CoOptimization, 300)
    val b = Harness.runCase(spark, "WB", "Q1", Adj.CommunicationFirst, 300)
    assert(a.outcome.isRight && a.outcome.map(_.resultCount) == b.outcome.map(_.resultCount), s"$a / $b")
  }

  test("formatTable renders one line per row plus a header") {
    val rows = Seq(row("Q1", Adj.CoOptimization, Right(small)), row("Q1", Adj.CommunicationFirst, Right(large)),
      row("Q2", Adj.CoOptimization, Left("IllegalStateException: boom")))
    val lines = Harness.formatTable("T", rows, 100).linesIterator.toVector
    assert(lines.length == 5, lines) // title + header + 3 rows
    assert(lines(2).split("\\s+").toSeq == Seq("Q1", "Co-Optimization") ++
      Seq(small.optimizationSec, small.preComputingSec, small.communicationSec, small.computationSec, small.totalSec)
        .map(v => f"$v%.1f") :+ small.resultCount.toString, lines(2))
    assert(lines(3).contains("Communication-First") && lines(3).endsWith(s" ${large.resultCount}"), lines(3))
    assert(lines(4).contains("FAILED") && lines(4).contains("boom") && lines(4).endsWith(" -"), lines(4))
  }

  test("formatTable renders timeouts in the paper's > budget style") {
    val s = Harness.formatTable("T", Seq(row("Q4", Adj.CommunicationFirst, Left("timeout"))), 150)
    assert(s.linesIterator.toVector.last.split("\\s+").toSeq ==
      Seq("Q4", "Communication-First", "-", "-", "-", ">", "150", ">", "150", "-"), s)
  }

  test("costTable completes every Co-Optimization case, and both strategies agree") {
    val rows = Harness.costTable(spark, "WB", 60)
    assert(rows.map(r => (r.query, r.strategy)) ==
      Seq("Q4", "Q5", "Q6").flatMap(q => Seq((q, Adj.CoOptimization), (q, Adj.CommunicationFirst))))
    rows.filter(_.strategy == Adj.CoOptimization).foreach(r => assert(r.outcome.isRight, r.toString))
    rows.groupBy(_.query).foreach { case (q, rs) =>
      assert(rs.map(_.outcome.map(_.resultCount)).distinct.size == 1, s"$q: ${rs.mkString(" / ")}")
    }
  }

  test("faults names an incomplete Co-Optimization case and a count mismatch") {
    val ok = Seq(row("Q4", Adj.CoOptimization, Right(small)), row("Q4", Adj.CommunicationFirst, Left("timeout")),
      row("Q5", Adj.CoOptimization, Right(large)), row("Q5", Adj.CommunicationFirst, Left("SparkException: lost")))
    assert(Harness.faults(ok).isEmpty)
    val bad = Seq(row("Q4", Adj.CoOptimization, Left("timeout")),
      row("Q5", Adj.CoOptimization, Right(small)), row("Q5", Adj.CommunicationFirst, Right(large)),
      row("Q6", Adj.CoOptimization, Left("IllegalStateException: boom")))
    val f = Harness.faults(bad)
    assert(f.length == 3 && f(0).startsWith("Q4") && f(1).startsWith("Q6") && f(2).startsWith("Q5"), f)
    assert(f(2).contains(s"${small.resultCount} vs ${large.resultCount}"), f(2))
  }

  test("datasetTable lists all six datasets") {
    val lines = Harness.datasetTable(spark).linesIterator.toVector
    assert(lines.length == 2 + GraphData.all.length, lines) // title + header + one per dataset
    assert(lines.drop(2).map(_.split("\\s+").head) == GraphData.all.map(_.name), lines)
  }
}
