package org.apache.spark.sql

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.types.StructType

/** Wraps Spark's internal rows as a DataFrame, which Spark keeps package-private. */
object AdjDataFrames {

  def fromInternalRows(spark: SparkSession, rows: RDD[InternalRow], schema: StructType): DataFrame =
    spark.asInstanceOf[classic.SparkSession].internalCreateDataFrame(rows, schema)
}
