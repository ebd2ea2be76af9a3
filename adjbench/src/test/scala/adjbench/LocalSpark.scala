package adjbench

import org.apache.spark.sql.SparkSession

/** One small local session shared by the self-tests. */
object LocalSpark {
  lazy val session: SparkSession = SparkSession.builder()
    .master("local[2]")
    .appName("adjbench-selftest")
    .config("spark.ui.enabled", "false")
    .config("spark.sql.autoBroadcastJoinThreshold", "-1")
    .getOrCreate()
}
