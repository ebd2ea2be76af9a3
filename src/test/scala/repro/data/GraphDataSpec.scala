package repro.data

import org.apache.spark.serializer.JavaSerializer
import org.apache.spark.sql.Row
import org.apache.spark.sql.functions._

import repro.SparkSpec

class GraphDataSpec extends SparkSpec {

  test("generation is deterministic in the spec") {
    val a = GraphData.graph(spark, GraphData.wb).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val b = GraphData.graph(spark, GraphData.wb).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(a == b)
  }

  test("graphs are symmetric") {
    val g = GraphData.graph(spark, GraphData.wb).cache()
    val fwd = g.select("src", "dst")
    val rev = g.select(col("dst") as "src", col("src") as "dst")
    assert(fwd.except(rev).count() == 0)
  }

  test("graphs have no self-loops and no duplicates") {
    val g = GraphData.graph(spark, GraphData.wb).cache()
    assert(g.where(col("src") === col("dst")).count() == 0)
    assert(g.count() == g.distinct().count())
  }

  test("vertex ids stay in the configured domain") {
    val g = GraphData.graph(spark, GraphData.wb)
    val row = g.agg(min("src"), max("src"), min("dst"), max("dst")).head()
    assert(row.getLong(0) >= 1 && row.getLong(1) <= GraphData.wb.nodes)
    assert(row.getLong(2) >= 1 && row.getLong(3) <= GraphData.wb.nodes)
  }

  test("degree distribution is heavy-tailed (hubs exist)") {
    val g = GraphData.graph(spark, GraphData.wb).cache()
    val degrees = g.groupBy("src").count().select("count")
      .collect().map(_.getLong(0)).sorted.reverse
    val n = degrees.length
    // The top vertex should dominate the median by a wide margin.
    assert(degrees.head >= 10 * degrees(n / 2),
      s"max degree ${degrees.head} vs median ${degrees(n / 2)}")
  }

  test("the six dataset specs keep the paper's relative size order") {
    val counts = GraphData.all.map(s => GraphData.graph(spark, s).count())
    assert(counts == counts.sorted, s"sizes not increasing: $counts")
    // Each within 2x of the paper's |R| scaled by 1/400 (DESIGN.md §3).
    val target = Seq(33000L, 55250L, 127250L, 173500L, 459750L, 586000L)
    counts.zip(target).foreach { case (n, t) =>
      assert(n > t / 2 && n < t * 2, s"size $n too far from scaled target $t")
    }
  }

  test("a graph's partitions carry no rows and hold parallelize's slices in order") {
    val sc    = spark.sparkContext
    val ser   = new JavaSerializer(sc.getConf).newInstance()
    val parts = math.max(4, sc.defaultParallelism)
    for (spec <- Seq(GraphData.wb, GraphData.as_, GraphData.ok)) {
      val rdd   = GraphData.graph(spark, spec).rdd
      val bytes = rdd.partitions.map(p => ser.serialize(p).limit())
      assert(bytes.forall(_ < 4096), s"${spec.name}: partitions of ${bytes.mkString(", ")} bytes")
      val rows = GraphData.scaleFreeEdges(spec.nodes, spec.m, spec.closure, spec.seed)
        .flatMap { case (u, v) => Seq(Row(u, v), Row(v, u)) }
      val want = sc.parallelize(rows, parts).glom().collect().map(_.toSeq).toSeq
      assert(rdd.glom().collect().map(_.toSeq).toSeq == want, spec.name)
    }
  }

  test("dataset registry exposes all six names") {
    assert(GraphData.byName.keySet == Set("WB", "AS", "WT", "LJ", "EN", "OK"))
  }

  test("sizeMb mirrors two 8-byte columns") {
    assert(GraphData.sizeMb(1000000) == 16.0)
  }
}
