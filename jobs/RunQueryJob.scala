package repro.jobs

import repro.bench.Harness
import repro.core.adj.Adj

/** spark-submit entrypoint running a single (dataset, query, strategy)
  * test-case and printing its cost report.
  *
  * {{{
  * spark-submit --class repro.jobs.RunQueryJob <jar> <dataset> <Q1..Q11> \
  *   [co|comm] [budgetSec]
  * }}}
  */
object RunQueryJob {
  def main(args: Array[String]): Unit = {
    require(args.length >= 2, "usage: RunQueryJob <dataset> <query> [co|comm] [budgetSec]")
    val strategy = args.lift(2) match {
      case Some("comm") => Adj.CommunicationFirst
      case _            => Adj.CoOptimization
    }
    val budget = args.lift(3).map(_.toDouble).getOrElse(600.0)
    val spark = Harness.session(s"adj-${args(0)}-${args(1)}")
    try {
      val row = Harness.runCase(spark, args(0), args(1), strategy, budget)
      println(Harness.formatTable("Single case", Seq(row), budget))
    } finally spark.stop()
  }
}
