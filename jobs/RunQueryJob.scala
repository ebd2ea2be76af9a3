package repro.jobs

import repro.bench.Harness
import repro.core.adj.Adj
import repro.core.hypergraph.QueryLibrary
import repro.data.GraphData

/** spark-submit entrypoint running a single (dataset, query, strategy)
  * test-case and printing its cost report; exits 2 on a bad argument.
  *
  * {{{
  * spark-submit --class repro.jobs.RunQueryJob <jar> <dataset> <Q1..Q11> \
  *   [co|comm] [budgetSec]
  * }}}
  */
object RunQueryJob {
  val Usage = "usage: RunQueryJob <WB|AS|WT|LJ|EN|OK> <Q1..Q11> [co|comm] [budgetSec > 0]"

  /** (dataset, query, strategy, budget seconds), or None when `args` are not valid. */
  def parse(args: Seq[String]): Option[(String, String, Adj.Strategy, Double)] = args match {
    case Seq(d, q, rest @ _*) if GraphData.byName.contains(d) && QueryLibrary.all.contains(q) && rest.length <= 2 =>
      for {
        s <- Map("co" -> Adj.CoOptimization, "comm" -> Adj.CommunicationFirst).get(rest.headOption.getOrElse("co"))
        b <- rest.lift(1).fold(Option(600.0))(_.toDoubleOption.filter(_ > 0))
      } yield (d, q, s, b)
    case _ => None
  }

  def main(args: Array[String]): Unit = {
    val (dataset, query, strategy, budget) = parse(args.toSeq).getOrElse { Console.err.println(Usage); sys.exit(2) }
    val spark = Harness.session(s"adj-$dataset-$query")
    try {
      val row = Harness.runCase(spark, dataset, query, strategy, budget)
      println(Harness.formatTable("Single case", Seq(row), budget))
    } finally spark.stop()
  }
}
