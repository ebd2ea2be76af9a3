package adjbench

import org.scalatest.funsuite.AnyFunSuite

import repro.core.adj.Adj
import repro.core.hypergraph.QueryLibrary
import repro.data.GraphData

class DigestSpec extends AnyFunSuite {
  private lazy val spark = LocalSpark.session
  private val q1         = QueryLibrary.q1
  private val spec       = GraphData.Spec("T", 14, 3, 0.3, 5)
  private lazy val graph = GraphData.graph(spark, spec).cache()
  private lazy val rows  = graph.collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
  private lazy val ref   = Digest.reference(q1, rows, threads = 1)

  /** Triangles (a, b, c) of the symmetric edge set, by brute force. */
  private def triangles: Seq[Seq[Long]] = {
    val e = rows.toSet
    val v = rows.map(_._1).distinct
    for (a <- v; b <- v; c <- v if e((a, b)) && e((b, c)) && e((a, c))) yield Seq(a, b, c)
  }

  test("DuckDB's digest of Q1 on a 14-node graph matches a brute-force digest") {
    val tris = triangles
    assert(tris.nonEmpty)
    assert(ref == Digest.ofHashes(tris.iterator.map(t => Digest.rowHash(t(_), 3))))
  }

  test("the consumer's digest of ADJ's Q1 result matches the DuckDB reference") {
    val (df, _) = Adj.runOnGraph(spark, q1, graph, Adj.Config(samples = 10))
    assert(Digest.of(df) == ref)
    assert(Digest.mismatch(Digest.of(df), ref).isEmpty)
  }

  test("the gate fails when any reference value is perturbed") {
    val (df, _) = Adj.runOnGraph(spark, q1, graph, Adj.Config(samples = 10))
    val got = Digest.of(df)
    for (bad <- Seq(ref.copy(rows = ref.rows + 1), ref.copy(sum = ref.sum - 1), ref.copy(sumSq = ref.sumSq + 7)))
      assert(Digest.mismatch(got, bad).exists(_.startsWith("wrong result")))
  }

  test("the digest depends on column order but not on row order") {
    val a = Digest.ofHashes(Iterator(Seq(1L, 2L), Seq(3L, 4L)).map(t => Digest.rowHash(t(_), 2)))
    val b = Digest.ofHashes(Iterator(Seq(3L, 4L), Seq(1L, 2L)).map(t => Digest.rowHash(t(_), 2)))
    val c = Digest.ofHashes(Iterator(Seq(2L, 1L), Seq(4L, 3L)).map(t => Digest.rowHash(t(_), 2)))
    assert(a == b)
    assert(a != c)
  }
}
