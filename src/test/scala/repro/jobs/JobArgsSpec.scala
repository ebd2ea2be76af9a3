package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

import repro.core.adj.Adj

/** The Tables jobs' argument parsing, which runs before any Spark session:
  * a `None` makes the job print its usage line and exit with status 2.
  */
class JobArgsSpec extends AnyFunSuite {

  test("the documented invocations parse, with the defaults filled in") {
    assert(CostTableJob.parse(Seq("AS", "150")).contains(("AS", 150.0)))
    assert(CostTableJob.parse(Seq("WB", "60")).contains(("WB", 60.0)))
    assert(CostTableJob.parse(Seq("LJ")).contains(("LJ", 150.0)))
    assert(CostTableJob.parse(Nil).contains(("AS", 150.0)))
    assert(RunQueryJob.parse(Seq("OK", "Q6", "co", "300")).contains(("OK", "Q6", Adj.CoOptimization, 300.0)))
    assert(RunQueryJob.parse(Seq("WB", "Q4", "comm")).contains(("WB", "Q4", Adj.CommunicationFirst, 600.0)))
    assert(RunQueryJob.parse(Seq("AS", "Q11")).contains(("AS", "Q11", Adj.CoOptimization, 600.0)))
  }

  test("a strategy other than co or comm is rejected, not run as co-optimization") {
    for (s <- Seq("commfirst", "Comm", "hcubej", "CO", ""))
      assert(RunQueryJob.parse(Seq("AS", "Q6", s)).isEmpty, s)
  }

  test("an unknown dataset or query is rejected") {
    assert(CostTableJob.parse(Seq("XX")).isEmpty)
    assert(CostTableJob.parse(Seq("as", "150")).isEmpty)
    assert(RunQueryJob.parse(Seq("XX", "Q6")).isEmpty)
    assert(RunQueryJob.parse(Seq("AS", "Q12")).isEmpty)
    assert(RunQueryJob.parse(Seq("AS", "q6", "co")).isEmpty)
  }

  test("a budget that is not a number is rejected") {
    for (b <- Seq("abc", "60s", "", "NaN")) {
      assert(CostTableJob.parse(Seq("AS", b)).isEmpty, b)
      assert(RunQueryJob.parse(Seq("AS", "Q6", "co", b)).isEmpty, b)
    }
  }

  test("a budget of 0 or below is rejected") {
    for (b <- Seq("0", "-5", "-0.5")) {
      assert(CostTableJob.parse(Seq("AS", b)).isEmpty, b)
      assert(RunQueryJob.parse(Seq("AS", "Q6", "co", b)).isEmpty, b)
    }
    assert(CostTableJob.parse(Seq("AS", "0.5")).contains(("AS", 0.5)))
  }

  test("missing or surplus arguments are rejected") {
    assert(RunQueryJob.parse(Nil).isEmpty)
    assert(RunQueryJob.parse(Seq("AS")).isEmpty)
    assert(RunQueryJob.parse(Seq("AS", "Q6", "co", "300", "100")).isEmpty)
    assert(CostTableJob.parse(Seq("AS", "150", "100")).isEmpty)
  }
}
