package adjbench

import java.sql.{Connection, DriverManager}

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.duckdb.DuckDBConnection

import repro.baselines.SparkSqlJoin
import repro.core.hypergraph.Hypergraph

/** Order-independent digest of a result: row count plus two sums of a
  * per-row polynomial hash over every column, in column order. All
  * arithmetic stays below 2^63, so the same digest is computed exactly by
  * the Scala consumer and by plain SQL in DuckDB.
  */
final case class Digest(rows: Long, sum: Long, sumSq: Long) {
  def +(o: Digest): Digest = Digest(rows + o.rows, sum + o.sum, sumSq + o.sumSq)
}

object Digest {
  val P    = 2147483647L // 2^31 - 1
  val Base = 1000003L

  val empty: Digest = Digest(0, 0, 0)

  /** The correctness gate: None when `got` matches the reference. */
  def mismatch(got: Digest, ref: Digest): Option[String] =
    if (got == ref) None else Some(s"wrong result: got $got, expected $ref")

  /** Polynomial hash of a row's `n` columns, mod P. */
  def rowHash(cols: Int => Long, n: Int): Long = {
    var h = 0L
    var i = 0
    while (i < n) { h = (h * Base + cols(i) + 1) % P; i += 1 }
    h
  }

  /** Folds row hashes into a digest. */
  def ofHashes(hs: Iterator[Long]): Digest = {
    var n = 0L; var s = 0L; var s2 = 0L
    hs.foreach { h => n += 1; s += h; s2 += h * h % P }
    Digest(n, s, s2)
  }

  /** Drains `df` on the executors, reading every column of every row. */
  def of(df: DataFrame): Digest = {
    val width = df.columns.length
    df.rdd
      .mapPartitions(it => Iterator(ofHashes(it.map((r: Row) => rowHash(r.getLong, width)))))
      .collect()
      .foldLeft(empty)(_ + _)
  }

  /** Drains an RDD of tuples on the executors, reading every column. */
  def ofArrays(rdd: RDD[Array[Long]]): Digest =
    rdd
      .mapPartitions(it => Iterator(ofHashes(it.map(t => rowHash(t(_), t.length)))))
      .collect()
      .foldLeft(empty)(_ + _)

  /** The digest as a DuckDB SQL expression over the columns of `inner`. */
  def sql(inner: String, cols: Seq[String]): String = {
    val h = cols.foldLeft("0::BIGINT")((acc, c) => s"(($acc) * $Base + $c + 1) % $P")
    s"SELECT count(*), coalesce(sum(h), 0), coalesce(sum(h * h % $P), 0) " +
      s"FROM (SELECT $h AS h FROM ($inner) q) t"
  }

  /** Reference digest of `query` over the edge table `edges` (columns
    * src, dst), computed by DuckDB, not by ADJ.
    */
  def reference(query: Hypergraph, edges: Seq[(Long, Long)], threads: Int): Digest = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      exec(conn, s"SET threads TO $threads")
      exec(conn, "CREATE TABLE edges (src BIGINT, dst BIGINT)")
      val app = conn.unwrap(classOf[DuckDBConnection]).createAppender(DuckDBConnection.DEFAULT_SCHEMA, "edges")
      try edges.foreach { case (u, v) => app.beginRow(); app.append(u); app.append(v); app.endRow() }
      finally app.close()
      val st = conn.createStatement
      try {
        val rs = st.executeQuery(sql(SparkSqlJoin.sql(query, "edges"), query.attributes))
        rs.next()
        Digest(rs.getLong(1), rs.getLong(2), rs.getLong(3))
      } finally st.close()
    } finally conn.close()
  }

  private def exec(conn: Connection, stmt: String): Unit = {
    val s = conn.createStatement
    try s.execute(stmt) finally s.close()
  }
}
