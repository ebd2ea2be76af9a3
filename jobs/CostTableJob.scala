package repro.jobs

import repro.bench.Harness
import repro.data.GraphData

/** spark-submit entrypoint reproducing one of Tables II–IV.
  *
  * {{{
  * spark-submit --class repro.jobs.CostTableJob <jar> <AS|LJ|OK> [budgetSec]
  * }}}
  *
  * AS reproduces Table II, LJ Table III, OK Table IV. Exits with status 1
  * when a Co-Optimization case fails or times out, or when both strategies
  * finish a query with different result counts; with 2 on a bad argument.
  */
object CostTableJob {
  val Usage = "usage: CostTableJob [WB|AS|WT|LJ|EN|OK] [budgetSec > 0]"

  /** (dataset, budget seconds per case), or None when `args` are not valid. */
  def parse(args: Seq[String]): Option[(String, Double)] = for {
    dataset <- args.headOption.orElse(Some("AS")) if args.length <= 2 && GraphData.byName.contains(dataset)
    budget  <- args.lift(1).fold(Option(150.0))(_.toDoubleOption.filter(_ > 0))
  } yield (dataset, budget)

  def main(args: Array[String]): Unit = {
    val (dataset, budget) = parse(args.toSeq).getOrElse { Console.err.println(Usage); sys.exit(2) }
    val spark = Harness.session(s"adj-cost-table-$dataset")
    val faults =
      try {
        val rows = Harness.costTable(spark, dataset, budget)
        println(Harness.formatTable(s"Cost table: $dataset", rows, budget))
        Harness.faults(rows)
      } finally spark.stop()
    faults.foreach(f => Console.err.println(s"[cost-table] $f"))
    if (faults.nonEmpty) sys.exit(1)
  }
}
