package repro.core.adj

import org.apache.spark.HashPartitioner
import org.apache.spark.sql.SparkSession

import repro.core.ghd.HyperTree
import repro.core.hcube.{HCube, Shares}
import repro.core.hypergraph.Hypergraph
import repro.core.sampling.Sampler

/** The ADJ cost model (Sec. III-B): communication cost `cost_C`, per-node
  * Leapfrog extension cost `cost_E`, and pre-computing cost `cost_M`, all in
  * seconds.
  *
  * α (tuples shuffled / sec) is measured once per JVM by a calibration
  * shuffle; β (extensions / sec) comes from the sampling runs for raw
  * relations and from a trie-probe microbenchmark for pre-computed ones.
  *
  * @param relSizes     tuple count per query atom
  * @param numServers   N* — parallel workers (here: Spark cores)
  * @param cubeBudget   P — hypercubes available to the shares optimizer
  */
final class CostModel(
    spark: SparkSession,
    val query: Hypergraph,
    val tree: HyperTree,
    val sampler: Sampler,
    relSizes: IndexedSeq[Long],
    val numServers: Int,
    val cubeBudget: Int,
) {

  lazy val alpha: Double  = CostModel.measuredAlpha(spark)
  def betaRaw: Double     = sampler.betaRaw
  lazy val betaPre: Double = CostModel.measuredBetaPre()

  /** Estimated |R_v| = |⋈ λ(v)| for hypertree node v. */
  def bagSize(v: Int): Double =
    if (tree.nodes(v).atomIdxs.length == 1) relSizes(tree.nodes(v).atomIdxs.head).toDouble
    else sampler.estimateJoin(tree.nodes(v).attrs, tree.nodes(v).atomIdxs).card

  /** Schemas+sizes of the rewritten query's relations for pre-compute set C. */
  def rewrittenRels(c: Set[Int]): Seq[(Set[Int], Long)] =
    tree.nodes.indices.flatMap { v =>
      if (c.contains(v) && tree.nodes(v).atomIdxs.length > 1)
        Seq((tree.nodes(v).attrs, math.max(1L, bagSize(v).toLong)))
      else
        tree.nodes(v).atomIdxs.map(i => (query.edges(i), relSizes(i)))
    }

  /** Optimal shares for the rewritten query. */
  def shares(c: Set[Int]): Shares.Result =
    Shares.optimize(rewrittenRels(c), query.numAttrs, cubeBudget)

  /** cost_C(C): seconds to shuffle the rewritten query's input. */
  def costC(c: Set[Int]): Double = shares(c).shuffledTuples / alpha

  /** cost_E^i(C, O): seconds to extend the partial bindings over the nodes
    * traversed before v (`before`) through node v's attributes. The binding
    * count |T^{v_{i-1}}| is estimated by sampling the projection join of the
    * query onto the predecessors' attributes; β depends on whether v is
    * pre-computed.
    */
  def costE(before: Set[Int], preComputed: Boolean): Double = {
    val bindings =
      if (before.isEmpty) 1.0
      else {
        val attrs = before.flatMap(tree.nodes(_).attrs)
        sampler.estimateJoin(attrs, query.atoms.indices).card
      }
    val beta = if (preComputed) betaPre else betaRaw
    bindings / (beta * numServers)
  }

  /** cost_M(R_v): shuffle λ(v) with its own optimal shares, plus the
    * computation of ⋈ λ(v) (extensions ≈ inputs + output size).
    */
  def costM(v: Int): Double = {
    val node = tree.nodes(v)
    if (node.atomIdxs.length == 1) return 0.0 // nothing to pre-compute
    val rels  = node.atomIdxs.map(i => (query.edges(i), relSizes(i)))
    val sh    = Shares.optimize(rels, query.numAttrs, cubeBudget)
    val comm  = sh.shuffledTuples / alpha
    val comp  = (rels.map(_._2.toDouble).sum + bagSize(v)) / (betaRaw * numServers)
    comm + comp
  }
}

object CostModel {

  @volatile private var alphaCache: Double = -1.0
  @volatile private var betaPreCache: Double = -1.0

  // Calibration sizes: α's synthetic tuples, β_pre's sorted keys and probes.
  private val AlphaTuples   = 150000L
  private val BetaPreKeys   = 1 << 16
  private val BetaPreProbes = 1_000_000

  /** α: tuples shuffled per second, measured by shuffling `AlphaTuples`
    * synthetic tuples across all partitions once per JVM (Sec. III-B).
    */
  def measuredAlpha(spark: SparkSession): Double = {
    if (alphaCache > 0) return alphaCache
    val sc    = spark.sparkContext
    val parts = math.max(2, sc.defaultParallelism)
    val rdd   = sc.range(0L, AlphaTuples, numSlices = parts)
      .map(i => (HCube.hash(i, parts), Array(i, i + 1)))
    val t0 = System.nanoTime()
    rdd.partitionBy(new HashPartitioner(parts)).count()
    val sec = (System.nanoTime() - t0) / 1e9
    alphaCache = AlphaTuples / math.max(sec, 1e-6)
    alphaCache
  }

  /** β for pre-computed nodes: trie probes per second, measured by binary
    * searches over a sorted array of `BetaPreKeys` keys (the pre-built trie
    * makes an extension a pure lookup; bags at bench scale are
    * cache-resident, hence the modest size).
    */
  def measuredBetaPre(): Double = {
    if (betaPreCache > 0) return betaPreCache
    val rnd = new scala.util.Random(7)
    val arr = Array.fill(BetaPreKeys)(rnd.nextLong()).sorted
    var acc = 0L
    val t0 = System.nanoTime()
    var i = 0
    while (i < BetaPreProbes) {
      acc += java.util.Arrays.binarySearch(arr, rnd.nextLong())
      i += 1
    }
    val sec = (System.nanoTime() - t0) / 1e9
    if (acc == Long.MinValue) Console.err.println("") // keep `acc` live
    betaPreCache = BetaPreProbes / math.max(sec, 1e-6)
    betaPreCache
  }
}
