package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{LongType, StructField, StructType}

import repro.core.hcube.Rel
import repro.core.hypergraph.Hypergraph

/** Spark-side helpers for the suites that exercise the distributed stack. */
object SparkTestData {

  val edgeSchema: StructType = StructType(Seq(
    StructField("src", LongType, nullable = false),
    StructField("dst", LongType, nullable = false)))

  /** Local edge list as a (src, dst) DataFrame. */
  def graphDf(spark: SparkSession, edges: Seq[Array[Long]], parts: Int = 4): DataFrame =
    spark.createDataFrame(
      spark.sparkContext.parallelize(edges.map(e => Row(e(0), e(1))), parts),
      edgeSchema)

  /** Binds every atom of `q` to one RDD of the edge list `g`. */
  def rels(spark: SparkSession, q: Hypergraph, g: Seq[Array[Long]], parts: Int = 4): Vector[Rel] = {
    val rdd = spark.sparkContext.parallelize(g, parts)
    q.atoms.indices.map { i =>
      Rel(q.atoms(i).name, q.atoms(i).attrs.map(q.attrId), rdd, g.length.toLong)
    }.toVector
  }
}
