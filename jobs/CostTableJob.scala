package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.bench.Harness
import repro.core.adj.Adj

/** spark-submit entrypoint reproducing one of Tables II–IV.
  *
  * {{{
  * spark-submit --class repro.jobs.CostTableJob <jar> <AS|LJ|OK> [budgetSec] [samples]
  * }}}
  *
  * AS reproduces Table II, LJ Table III, OK Table IV.
  */
object CostTableJob {
  def main(args: Array[String]): Unit = {
    val dataset = args.headOption.getOrElse("AS")
    val budget  = args.lift(1).map(_.toDouble).getOrElse(150.0)
    val samples = args.lift(2).map(_.toInt).getOrElse(Adj.Config().samples)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"adj-cost-table-$dataset")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val rows = Harness.costTable(spark, dataset, budget, samples)
      println(Harness.formatTable(s"Cost table: $dataset", rows, budget))
    } finally spark.stop()
  }
}
