package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.bench.Harness

/** spark-submit entrypoint reproducing Table I (dataset statistics).
  *
  * {{{
  * spark-submit --class repro.jobs.TableIJob target/scala-2.13/repro_*.jar
  * }}}
  */
object TableIJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("adj-table1")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(Harness.datasetTable(spark))
    finally spark.stop()
  }
}
