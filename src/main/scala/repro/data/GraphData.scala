package repro.data

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{LongType, StructField, StructType}

/** Synthetic stand-ins for the paper's six SNAP/LAW graphs (Table I).
  *
  * The container is offline, so we generate deterministic scale-free graphs
  * with a Barabási–Albert preferential-attachment process plus a
  * Holme–Kim-style triangle-closure step: heavy-tailed degree distributions
  * *and* realistic clustering (triangles ≈ O(edges), as in real web/social
  * graphs — a pure Zipf-endpoint model produces pathologically
  * triangle-dense hubs). Each graph is treated as a 2-attribute relation,
  * symmetrized, exactly as in Sec. VII-A. Scale is ~1/400 of the originals;
  * the paper's relative size order (WB < AS < WT < LJ < EN < OK) and the
  * skew that drives ADJ's computation/communication trade-off are
  * preserved. See DESIGN.md §3.
  */
object GraphData {

  /** Generator parameters for one dataset.
    *
    * @param nodes    vertex count
    * @param m        edges attached per new vertex (avg degree ≈ 2m)
    * @param closure  probability of attaching to a neighbor of the previous
    *                 target (creates a triangle, raises clustering)
    */
  final case class Spec(name: String, nodes: Int, m: Int, closure: Double, seed: Long)

  // Tuned so the symmetrized tuple count lands near (paper |R|) / 400.
  val wb: Spec  = Spec("WB", 3200, 5, 0.3, 11)
  val as_ : Spec = Spec("AS", 5400, 5, 0.3, 12)
  val wt: Spec  = Spec("WT", 12500, 5, 0.3, 13)
  val lj: Spec  = Spec("LJ", 17000, 5, 0.3, 14)
  val en: Spec  = Spec("EN", 45000, 5, 0.3, 15)
  val ok: Spec  = Spec("OK", 57000, 5, 0.3, 16)

  val all: Seq[Spec] = Seq(wb, as_, wt, lj, en, ok)
  val byName: Map[String, Spec] = all.map(s => s.name -> s).toMap

  private val edgeSchema = StructType(Seq(
    StructField("src", LongType, nullable = false),
    StructField("dst", LongType, nullable = false)))

  /** The symmetrized edge relation (columns `src`, `dst`, both Long): each
    * edge (u, v) as the rows (u, v) and (v, u), in generation order.
    *
    * The rows live in one broadcast as a `src` and a `dst` column, and a
    * partition carries only its index i: it reads the rows
    * [i·n/parts, (i+1)·n/parts), the slices `parallelize` would cut. A task
    * over the graph then ships no rows.
    */
  def graph(spark: SparkSession, spec: Spec): DataFrame = {
    val edges = scaleFreeEdges(spec.nodes, spec.m, spec.closure, spec.seed)
    val n     = 2 * edges.length
    val src   = new Array[Long](n)
    val dst   = new Array[Long](n)
    var j = 0
    for ((u, v) <- edges) {
      src(j) = u; dst(j) = v; src(j + 1) = v; dst(j + 1) = u
      j += 2
    }
    val sc    = spark.sparkContext
    val parts = math.max(4, sc.defaultParallelism)
    val cols  = sc.broadcast((src, dst))
    val rows  = sc.parallelize(0 until parts, parts).flatMap { i =>
      val (s, d) = cols.value
      Iterator.range((i.toLong * n / parts).toInt, ((i + 1).toLong * n / parts).toInt).map(r => Row(s(r), d(r)))
    }
    spark.createDataFrame(rows, edgeSchema)
  }

  /** Barabási–Albert attachment with triangle closure, driver-side and
    * deterministic in the seed. Vertices are 1-based; every returned edge
    * (u, v) has v < u, so the undirected edge set is duplicate-free.
    */
  def scaleFreeEdges(nodes: Int, m: Int, closure: Double, seed: Long): Vector[(Long, Long)] = {
    require(nodes > m + 1 && m >= 1, s"need nodes > m+1, got nodes=$nodes m=$m")
    val rnd   = new scala.util.Random(seed)
    val edges = Vector.newBuilder[(Long, Long)]
    val adj   = Array.fill(nodes + 1)(collection.mutable.ArrayBuffer.empty[Int])
    // Endpoint pool: each vertex appears once per incident edge, so uniform
    // draws are degree-proportional.
    val pool = collection.mutable.ArrayBuffer.empty[Int]
    def addEdge(u: Int, v: Int): Unit = {
      edges += ((u.toLong, v.toLong))
      adj(u) += v; adj(v) += u
      pool += u; pool += v
    }
    // Seed clique over the first m+1 vertices.
    for (u <- 1 to m + 1; v <- 1 until u) addEdge(u, v)
    // Growth phase.
    var u = m + 2
    while (u <= nodes) {
      val chosen = collection.mutable.LinkedHashSet.empty[Int]
      var last   = -1
      var guard  = 0
      while (chosen.size < m && guard < 50 * m) {
        guard += 1
        val cand =
          if (last > 0 && rnd.nextDouble() < closure && adj(last).nonEmpty)
            adj(last)(rnd.nextInt(adj(last).length)) // close a triangle
          else pool(rnd.nextInt(pool.length))
        if (cand != u && !chosen.contains(cand)) { chosen += cand; last = cand }
      }
      chosen.foreach(v => addEdge(u, v))
      u += 1
    }
    edges.result()
  }

  /** Estimated on-disk size in MB assuming two 8-byte columns, mirroring the
    * paper's Table I "Size (MB)" column.
    */
  def sizeMb(tupleCount: Long): Double = tupleCount * 16.0 / 1e6
}
