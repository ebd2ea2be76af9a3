package repro.core.adj

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
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
    *  - [[CommunicationFirst]]: HCubeJ [11] — minimize shuffled tuples only,
    *    never pre-compute, pick the attribute order by a cheap degree
    *    heuristic. With `cacheSize > 0` this is HCubeJ+Cache [28].
    */
  sealed trait Strategy
  case object CoOptimization      extends Strategy
  case object CommunicationFirst  extends Strategy

  /** @param samples      sampling budget per cardinality estimate
    * @param cubeBudget   hypercubes for HCube (default: default parallelism)
    * @param cacheSize    LFTJ intersection-cache entries (0 = off)
    * @param memoryTuples per-server tuple budget for the shares program
    */
  final case class Config(
      strategy: Strategy = CoOptimization,
      samples: Int = 500,
      cubeBudget: Option[Int] = None,
      cacheSize: Int = 0,
      memoryTuples: Option[Double] = None,
  )

  /** Per-stage wall-clock report matching the paper's Tables II–IV columns.
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
    val budget = cfg.cubeBudget.getOrElse(math.max(2, spark.sparkContext.defaultParallelism))

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
    // no longer needed once the strategy returns.
    try cfg.strategy match {
      case CoOptimization     => runCoOptimized(spark, query, rels, budget, cfg)
      case CommunicationFirst => runCommunicationFirst(spark, query, rels, budget, cfg)
    } finally persisted.foreach(_.unpersist(blocking = false))
  }

  private def runCoOptimized(
      spark: SparkSession,
      query: Hypergraph,
      rels: Vector[Rel],
      budget: Int,
      cfg: Config,
  ): (RDD[Array[Long]], Report) = {
    val tOpt0   = System.nanoTime()
    val tree    = GHD.decompose(query)
    Console.err.println(s"[adj] tree: $tree")
    val sampler = new Sampler(spark, rels, samples = cfg.samples)
    val model   = new CostModel(spark, query, tree, sampler, rels.map(_.size),
      numServers = budget, cubeBudget = budget, memoryTuples = cfg.memoryTuples)
    model.alpha; model.betaPre // force calibration inside the optimization phase
    val plan    = new Optimizer(model).optimize()
    val finalShares = model.shares(plan.preCompute)
    val optSec  = (System.nanoTime() - tOpt0) / 1e9
    Console.err.println(f"[adj] plan: $plan shares=$finalShares optSec=$optSec%.1f " +
      f"alpha=${model.alpha}%.3g betaRaw=${model.betaRaw}%.3g betaPre=${model.betaPre}%.3g")

    val tPre0 = System.nanoTime()
    val bags  = collection.mutable.ArrayBuffer.empty[Rel]
    val finalRels = tree.nodes.indices.flatMap { v =>
      val node = tree.nodes(v)
      if (plan.preCompute.contains(v) && node.atomIdxs.length > 1) {
        bags += precomputeBag(spark, query, rels, node, v, budget)
        Seq(bags.last)
      } else node.atomIdxs.map(rels)
    }
    val preSec = (System.nanoTime() - tPre0) / 1e9

    val (result, t) =
      try MultiwayJoin.execute(spark, finalRels, plan.ord, finalShares.p, cfg.cacheSize)
      finally bags.foreach(_.rdd.unpersist(blocking = false))
    (result, Report(optSec, preSec, plan, finalShares.shuffledTuples, t))
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

  private def runCommunicationFirst(
      spark: SparkSession,
      query: Hypergraph,
      rels: Vector[Rel],
      budget: Int,
      cfg: Config,
  ): (RDD[Array[Long]], Report) = {
    val tOpt0 = System.nanoTime()
    val shares = repro.core.hcube.Shares.optimize(
      rels.map(r => (r.attrs.toSet, r.size)), query.numAttrs, budget, cfg.memoryTuples)
    // HCubeJ selects its attribute order from ALL n! orders using sketch-style
    // statistics that are computation-oblivious and unreliable on cyclic
    // joins (this paper's Sec. IV, Fig. 8: "All-Selected" tracks the worst
    // valid order). We model that with the query's textual attribute order —
    // for Q4–Q6 an *invalid* order w.r.t. the hypertree, which defers chord
    // constraints and inflates the intermediate T^i exactly as Fig. 8 shows.
    val ord = (0 until query.numAttrs).toArray
    val optSec = (System.nanoTime() - tOpt0) / 1e9
    val (result, t) = MultiwayJoin.execute(spark, rels, ord, shares.p, cfg.cacheSize)
    val plan = Plan(Set.empty, Vector.empty, ord, 0.0)
    (result, Report(optSec, 0.0, plan, shares.shuffledTuples, t))
  }

  // ---------------------------------------------------------------- adapters

  /** Binds every atom of a subgraph query to the same graph (columns
    * (src, dst)) and returns the result as a DataFrame with the query's
    * attribute names — the experiment setup of Sec. VII-A.
    */
  def runOnGraph(
      spark: SparkSession,
      query: Hypergraph,
      graph: DataFrame,
      cfg: Config = Config(),
  ): (DataFrame, Report) = {
    val edgeRdd = graph.rdd.map(r => Array(r.getLong(0), r.getLong(1)))
    val (rdd, report) = run(spark, query, Vector.fill(query.numAtoms)(edgeRdd), cfg)
    (toDf(spark, rdd, query.attributes), report)
  }

  /** Wraps a result RDD as a DataFrame with the given column names. */
  def toDf(spark: SparkSession, rdd: RDD[Array[Long]], names: Seq[String]): DataFrame = {
    val schema = StructType(names.map(StructField(_, LongType, nullable = false)))
    spark.createDataFrame(rdd.map(t => Row.fromSeq(t.toSeq)), schema)
  }
}
