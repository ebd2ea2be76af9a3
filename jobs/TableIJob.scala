package repro.jobs

import repro.bench.Harness

/** spark-submit entrypoint reproducing Table I (dataset statistics).
  *
  * {{{
  * spark-submit --class repro.jobs.TableIJob target/scala-2.13/repro_*.jar
  * }}}
  */
object TableIJob {
  def main(args: Array[String]): Unit = {
    val spark = Harness.session("adj-table1")
    try println(Harness.datasetTable(spark))
    finally spark.stop()
  }
}
