package repro.core.adj

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{AdjDataFrames, DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.codegen.UnsafeRowWriter
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.apache.spark.storage.StorageLevel

import repro.core.exec.MultiwayJoin
import repro.core.ghd.{GHD, HyperNode}
import repro.core.hcube.Rel
import repro.core.hypergraph.Hypergraph
import repro.core.sampling.Sampler

/** The ADJ prototype (Sec. III & V): one-round multiway join with
  * co-optimized pre-computing, communication, and computation.
  */
object Adj {

  /** Which optimizer strategy to run.
    *
    *  - [[CoOptimization]]: the paper's contribution — GHD + sampling +
    *    Algorithm 2, possibly pre-computing hypertree bags.
    *  - [[CommunicationFirst]]: HCubeJ [11] — a fixed plan that minimizes
    *    shuffled tuples only, never pre-computes, and takes the query's
    *    textual attribute order.
    *
    * The strategy only decides the plan; both run it the same way.
    */
  sealed trait Strategy
  case object CoOptimization      extends Strategy
  case object CommunicationFirst  extends Strategy

  /** @param samples sampling budget per cardinality estimate; the one
    *                default every caller reads
    */
  final case class Config(strategy: Strategy = CoOptimization, samples: Int = 100) {
    require(samples >= 1, s"samples must be at least 1, not $samples")
  }

  /** Per-stage wall-clock report matching the paper's Tables II–IV columns.
    * Shuffled tuples are the final join's, over its real inputs.
    * Communication, computation and the result size come from the final
    * join's [[MultiwayJoin.Timings]], so computation and the result size are
    * defined once the returned result has been drained (0 before).
    */
  final case class Report(
      optimizationSec: Double,
      preComputingSec: Double,
      plan: Plan,
      shuffledTuples: Double,
      timings: MultiwayJoin.Timings,
  ) {
    def communicationSec: Double = timings.communicationSec
    def computationSec: Double   = timings.computationSec
    def resultCount: Long        = timings.resultCount
    def totalSec: Double = optimizationSec + preComputingSec + communicationSec + computationSec
    override def toString: String =
      f"opt=$optimizationSec%.2fs pre=$preComputingSec%.2fs comm=$communicationSec%.2fs " +
        f"comp=$computationSec%.2fs total=$totalSec%.2fs $plan"
  }

  /** Runs a natural join query. Inputs the caller has not persisted are
    * persisted for the run and released once the final shuffle has run.
    *
    * @param data one RDD per query atom; columns in the atom's attribute order
    * @return result tuples in ascending attribute-id order (= the query's
    *         first-appearance attribute order), plus the cost report; the
    *         result is lazy, and the final join runs when it is drained
    */
  def run(
      spark: SparkSession,
      query: Hypergraph,
      data: IndexedSeq[RDD[Array[Long]]],
      cfg: Config = Config(),
  ): (RDD[Array[Long]], Report) = {
    require(data.length == query.numAtoms, "one RDD per atom required")
    val budget = math.max(2, spark.sparkContext.defaultParallelism)

    // Count each distinct backing RDD once (the workload reuses one graph).
    val persisted   = collection.mutable.ArrayBuffer.empty[RDD[Array[Long]]]
    val sizeByRddId = collection.mutable.Map.empty[Int, Long]
    val sizes = data.map { r =>
      sizeByRddId.getOrElseUpdate(r.id, {
        if (r.getStorageLevel == StorageLevel.NONE) persisted += r.persist(StorageLevel.MEMORY_AND_DISK)
        r.count()
      })
    }
    val rels = query.atoms.indices.map { i =>
      Rel(query.atoms(i).name, query.atoms(i).attrs.map(query.attrId), data(i), sizes(i))
    }.toVector

    // The result reads only the final shuffle's output, so the inputs are
    // no longer needed once the final join has been set up.
    try {
      val tOpt0 = System.nanoTime()
      val (plan, nodes) = cfg.strategy match {
        case CoOptimization => coOptimizedPlan(spark, query, rels, budget, cfg.samples)
        // HCubeJ's fixed plan over the trivial decomposition (one node per
        // atom): nothing pre-computed, shares over the raw relations.
        //
        // HCubeJ selects its attribute order from ALL n! orders using
        // sketch-style statistics that are computation-oblivious and
        // unreliable on cyclic joins (this paper's Sec. IV, Fig. 8:
        // "All-Selected" tracks the worst valid order). We model that with
        // the query's textual attribute order — for Q4–Q6 an *invalid* order
        // w.r.t. the hypertree, which defers chord constraints and inflates
        // the intermediate T^i exactly as Fig. 8 shows.
        case CommunicationFirst =>
          (Plan(Set.empty, Vector.empty, (0 until query.numAttrs).toArray, 0.0),
            query.edges.indices.map(i => HyperNode(Vector(i), query.edges(i), 1.0)).toVector)
      }
      runPlan(spark, query, rels, budget, plan, nodes, (System.nanoTime() - tOpt0) / 1e9)
    } finally persisted.foreach(_.unpersist(blocking = false))
  }

  /** GHD + sampling + Algorithm 2: the plan and the hypertree nodes it indexes. */
  private def coOptimizedPlan(
      spark: SparkSession,
      query: Hypergraph,
      rels: Vector[Rel],
      budget: Int,
      samples: Int,
  ): (Plan, Vector[HyperNode]) = {
    val tree    = GHD.decompose(query)
    Console.err.println(s"[adj] tree: $tree")
    val sampler = new Sampler(spark, rels, samples = samples)
    val model   = new CostModel(spark, query, tree, sampler, rels.map(_.size),
      numServers = budget, cubeBudget = budget)
    model.alpha; model.betaPre // force calibration inside the optimization phase
    val plan    = new Optimizer(model).optimize()
    Console.err.println(
      f"[adj] model: alpha=${model.alpha}%.3g betaRaw=${model.betaRaw}%.3g betaPre=${model.betaPre}%.3g")
    (plan, tree.nodes)
  }

  /** Runs any plan over the nodes it indexes: pre-computes the bags of
    * `plan.preCompute`, then sets up the one-round join over the nodes' bags
    * or atoms, in node order. Every one of these joins gets the shares that
    * minimize the tuples shuffled over the relations it actually reads.
    *
    * @param optSec the optimization phase's seconds, for the report
    */
  private[adj] def runPlan(
      spark: SparkSession,
      query: Hypergraph,
      rels: Vector[Rel],
      budget: Int,
      plan: Plan,
      nodes: Vector[HyperNode],
      optSec: Double = 0.0,
  ): (RDD[Array[Long]], Report) = {
    val tPre0 = System.nanoTime()
    val bags  = collection.mutable.ArrayBuffer.empty[Rel]
    val finalRels = nodes.indices.flatMap { v =>
      if (plan.preCompute.contains(v)) {
        bags += precomputeBag(spark, query, rels, nodes(v), v, budget)
        Seq(bags.last)
      } else nodes(v).atomIdxs.map(rels)
    }
    val preSec = if (bags.isEmpty) 0.0 else (System.nanoTime() - tPre0) / 1e9

    val (result, t, shares) =
      try MultiwayJoin.executeOptimized(spark, finalRels, plan.ord, query.numAttrs, budget)
      finally bags.foreach(_.rdd.unpersist(blocking = false))
    Console.err.println(f"[adj] plan: $plan shares=$shares optSec=$optSec%.1f")
    (result, Report(optSec, preSec, plan, shares.shuffledTuples, t))
  }

  /** Pre-computes the bag of hypertree node `v` with the one-round executor
    * itself. The bag is persisted and counted once: the count evaluates its
    * sub-join and gives its size, and the final join's shuffle reads the
    * persisted tuples. The caller unpersists the bag after that shuffle.
    */
  private[adj] def precomputeBag(
      spark: SparkSession,
      query: Hypergraph,
      rels: Vector[Rel],
      node: HyperNode,
      v: Int,
      budget: Int,
  ): Rel = {
    // The bag sub-join gets its own connected attribute order: the global
    // plan order is chosen against the whole query's constraints and can
    // leave a bag attribute unconstrained for several levels.
    val subOrd = Optimizer.connectedOrder(node.atomIdxs.map(query.edges))
    val (rdd, t, _) = MultiwayJoin.executeOptimized(
      spark, node.atomIdxs.map(rels), subOrd, query.numAttrs, budget)
    val size = rdd.persist(StorageLevel.MEMORY_AND_DISK).count()
    Console.err.println(s"[adj] precomputed bag$v: $size tuples " +
      f"(comm=${t.communicationSec}%.1fs comp=${t.computationSec}%.1fs)")
    Rel(s"bag$v", node.attrs.toVector.sorted, rdd, size)
  }

  // ---------------------------------------------------------------- adapters

  /** Binds every atom of a subgraph query to the same graph (its two Long
    * columns, (src, dst)) and returns the result as a DataFrame with the
    * query's attribute names — the experiment setup of Sec. VII-A.
    */
  def runOnGraph(
      spark: SparkSession,
      query: Hypergraph,
      graph: DataFrame,
      cfg: Config = Config(),
  ): (DataFrame, Report) = {
    require(graph.schema.length == 2, s"a graph has two columns, not ${graph.schema.length}")
    val edgeRdd = longRows(graph.queryExecution.toRdd)
    val (rdd, report) = run(spark, query, Vector.fill(query.numAtoms)(edgeRdd), cfg)
    (toDf(spark, rdd, query.attributes), report)
  }

  /** Spark's rows of Long columns as tuples, dropping every row with a NULL:
    * each input column is a join key, and a NULL key matches nothing, so
    * such a row adds nothing to the result.
    */
  def longRows(rows: RDD[InternalRow]): RDD[Array[Long]] =
    rows.filter(!_.anyNull).map { row =>
      val arr = new Array[Long](row.numFields)
      var i = 0
      while (i < arr.length) { arr(i) = row.getLong(i); i += 1 }
      arr
    }

  /** Result tuples as Spark's rows: output column i reads tuple column
    * `cols(i)`. The writer's row is reused across rows, as Spark operators'
    * output rows are; no column is ever null.
    */
  def unsafeRows(rdd: RDD[Array[Long]], cols: Array[Int]): RDD[InternalRow] =
    rdd.mapPartitions[InternalRow] { it =>
      val writer = new UnsafeRowWriter(cols.length)
      it.map { t =>
        writer.reset()
        var i = 0
        while (i < cols.length) { writer.write(i, t(cols(i))); i += 1 }
        writer.getRow
      }
    }

  /** Wraps a result RDD as a DataFrame with the given column names. */
  def toDf(spark: SparkSession, rdd: RDD[Array[Long]], names: Seq[String]): DataFrame = {
    val schema = StructType(names.map(StructField(_, LongType, nullable = false)))
    AdjDataFrames.fromInternalRows(spark, unsafeRows(rdd, names.indices.toArray), schema)
  }
}
