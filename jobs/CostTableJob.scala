package repro.jobs

import repro.bench.Harness
import repro.core.adj.Adj

/** spark-submit entrypoint reproducing one of Tables II–IV.
  *
  * {{{
  * spark-submit --class repro.jobs.CostTableJob <jar> <AS|LJ|OK> [budgetSec] [samples]
  * }}}
  *
  * AS reproduces Table II, LJ Table III, OK Table IV. Exits with status 1
  * when a Co-Optimization case fails or times out, or when both strategies
  * finish a query with different result counts.
  */
object CostTableJob {
  def main(args: Array[String]): Unit = {
    val dataset = args.headOption.getOrElse("AS")
    val budget  = args.lift(1).map(_.toDouble).getOrElse(150.0)
    val samples = args.lift(2).map(_.toInt).getOrElse(Adj.Config().samples)
    val spark = Harness.session(s"adj-cost-table-$dataset")
    val faults =
      try {
        val rows = Harness.costTable(spark, dataset, budget, samples)
        println(Harness.formatTable(s"Cost table: $dataset", rows, budget))
        Harness.faults(rows)
      } finally spark.stop()
    faults.foreach(f => Console.err.println(s"[cost-table] $f"))
    if (faults.nonEmpty) sys.exit(1)
  }
}
