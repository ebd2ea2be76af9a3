package adjbench

import scala.collection.immutable.ListMap
import scala.collection.mutable

import org.apache.spark.AdjbenchAccess
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel

import repro.core.adj.{Adj, CostModel, Optimizer}
import repro.core.catalyst.AdjStrategy
import repro.core.exec.MultiwayJoin
import repro.core.ghd.GHD
import repro.core.hcube.{HCube, Rel, Shares}
import repro.core.lftj.{Leapfrog, LeapfrogStats, TrieRelation}
import repro.core.sampling.Sampler

/** Per-layer numbers for the traced run. Every number comes from a call
  * the benchmark makes into a module's public functions, from ADJ's
  * public `Report`, or from the Spark listener; nothing inside the
  * program is instrumented.
  */
object Layers {

  /** (value, unit) per metric name, in report order. */
  type Metrics = ListMap[String, (Double, String)]

  /** Query ids of the probes (queries use 0, 1, …). */
  private val CalibId    = 1000
  private val RddRunId   = 1001
  private val OptimizeId = 1002
  private val HCubeId    = 1003
  private val CatalystId = 1004

  /** Times the first, calibrating calls to α and β_pre. They are cached
    * per JVM, so this must run before the first query.
    */
  def calibrate(spark: SparkSession, tracer: Tracer): Map[String, Double] = {
    spark.sparkContext.setLocalProperty(SparkTrace.QueryKey, CalibId.toString)
    Map(
      "adj.alpha_calib_s"   -> timed(tracer.span("adj.alpha_calib", CalibId)(CostModel.measuredAlpha(spark)))._2,
      "adj.betapre_calib_s" -> timed(tracer.span("adj.betapre_calib", CalibId)(CostModel.measuredBetaPre()))._2,
    )
  }

  def measure(
      spark: SparkSession,
      graph: DataFrame,
      w: Workload,
      ref: Digest,
      tracer: Tracer,
      st: SparkTrace,
      runs: Vector[QueryRun],
      plans: Plans.Summary,
      graphSecs: Seq[Double],
      calib: Map[String, Double],
  ): Metrics = {
    val sc     = spark.sparkContext
    val q      = w.query
    val budget = math.max(2, sc.defaultParallelism)
    def probe[T](name: String, id: Int)(body: => T): T = {
      sc.setLocalProperty(SparkTrace.QueryKey, id.toString)
      tracer.span(name, id)(body)
    }
    def edgeRdd(): RDD[Array[Long]] = graph.rdd.map(r => Array(r.getLong(0), r.getLong(1)))

    sc.addSparkListener(st)
    try {
      // The same query through Adj.run, draining the result RDD directly:
      // the DataFrame path minus this is the output conversion.
      val (rddSec, rddCallSec, rddReport) = probe("probe.adj_run", RddRunId) {
        val a = System.nanoTime()
        val in = edgeRdd()
        val (rdd, report) = tracer.span("adj.call", RddRunId)(Adj.run(spark, q, Vector.fill(q.numAtoms)(in), w.config))
        val b = System.nanoTime()
        val got = tracer.span("adj.consume", RddRunId)(Digest.ofArrays(rdd))
        Digest.mismatch(got, ref).foreach(m => throw new IllegalStateException(s"Adj.run path: $m"))
        ((System.nanoTime() - a) / 1e9, (b - a) / 1e9, report)
      }

      // Optimizer layers on the raw relations, as Adj.run binds them.
      val in   = edgeRdd().persist(StorageLevel.MEMORY_AND_DISK)
      val size = in.count()
      val rels = q.atoms.indices.map { i =>
        Rel(q.atoms(i).name, q.atoms(i).attrs.map(q.attrId), in, size)
      }.toVector
      val decomposeSec = medianTime(5)(tracer.span("ghd.decompose", OptimizeId)(GHD.decompose(q)))
      val tree    = GHD.decompose(q)
      val sampler = new Sampler(spark, rels, samples = Workload.Samples)
      val model   = new CostModel(spark, q, tree, sampler, rels.map(_.size),
        numServers = budget, cubeBudget = budget)
      val plan = probe("adj.optimize", OptimizeId)(new Optimizer(model).optimize())
      val alg2Sec = medianTime(3)(tracer.span("adj.alg2", OptimizeId)(new Optimizer(model).optimize()))
      val sharesSec = medianTime(5)(tracer.span("hcube.shares", OptimizeId)(
        Shares.optimize(rels.map(r => (r.attrs.toSet, r.size)), q.numAttrs, budget)))

      // The final one-round join's inputs and shares, as the workload's
      // strategy builds them (bags pre-computed for co-optimization).
      val bags = mutable.ArrayBuffer.empty[RDD[Array[Long]]]
      val (finalRels, p, predicted, ord) = w.strategy match {
        case Adj.CommunicationFirst =>
          val sh = Shares.optimize(rels.map(r => (r.attrs.toSet, r.size)), q.numAttrs, budget)
          (rels, sh.p, sh.shuffledTuples, (0 until q.numAttrs).toArray)
        case Adj.CoOptimization =>
          val sh = model.shares(plan.preCompute)
          val fr = probe("adj.precompute", HCubeId) {
            tree.nodes.indices.flatMap { v =>
              val node = tree.nodes(v)
              if (plan.preCompute.contains(v) && node.atomIdxs.length > 1) {
                val (rdd0, t, _) = MultiwayJoin.executeOptimized(spark, node.atomIdxs.map(rels),
                  Optimizer.connectedOrder(node.atomIdxs.map(q.edges)), q.numAttrs, budget)
                val rdd = rdd0.persist(StorageLevel.MEMORY_AND_DISK)
                rdd.count()
                bags += rdd
                Seq(Rel(s"bag$v", node.attrs.toVector.sorted, rdd, t.resultCount))
              } else node.atomIdxs.map(rels)
            }.toVector
          }
          (fr, sh.p, sh.shuffledTuples, plan.ord)
      }
      val shuffled = HCube.shufflePull(finalRels, p).persist(StorageLevel.MEMORY_AND_DISK)
      val perCube = probe("hcube.shuffle_pull", HCubeId)(shuffled
        .mapPartitionsWithIndex((i, it) => Iterator((i, it.map(_._2._2.length.toLong).sum)))
        .collect())
      val biggest = perCube.maxBy(_._2)._1
      val blocks = shuffled
        .mapPartitionsWithIndex((i, it) => if (i == biggest) it.map(_._2) else Iterator.empty)
        .collect()
      shuffled.unpersist(blocking = false)
      bags.foreach(_.unpersist(blocking = false))

      val rows = in.collect()
      in.unpersist(blocking = false)
      val cubesForSec = medianTime(3)(tracer.span("hcube.cubes_for", HCubeId) {
        var copies = 0L
        rels.foreach(r => rows.foreach(t => copies += HCube.cubesFor(r.attrs, t, p).length))
        copies
      })

      // Leapfrog on the largest hypercube's inputs, on the driver.
      val lvl    = MultiwayJoin.levelOf(ord)
      val perRel = Array.fill(finalRels.length)(mutable.ArrayBuffer.empty[Array[Long]])
      blocks.foreach { case (ri, block) => perRel(ri) ++= block }
      val (tries, buildSec) = timed(tracer.span("lftj.trie_build", HCubeId)(
        finalRels.indices.map(ri => TrieRelation.build(finalRels(ri).attrs, lvl, perRel(ri)))))
      val stats = new LeapfrogStats(ord.length)
      val (outRows, lfSec) = timed(tracer.span("lftj.leapfrog", HCubeId)(
        new Leapfrog(tries, ord.length, stats = stats).countAll()))

      // Catalyst planning of the workload's query as SQL.
      val strategies = spark.experimental.extraStrategies
      if (!strategies.exists(_.isInstanceOf[AdjStrategy]))
        spark.experimental.extraStrategies = strategies :+ AdjStrategy(spark)
      val planSec = medianTime(3)(tracer.span("catalyst.plan", CatalystId)(
        spark.sql(w.sqlText).queryExecution.executedPlan))
      spark.experimental.extraStrategies = strategies

      AdjbenchAccess.drainListeners(sc)
      val ok      = runs.filter(_.ok)
      val querySec = Bench.median(ok.filter(_.index > 0).map(_.sec))
      val reports = runs.flatMap(_.report) :+ rddReport
      val consumes =
        (if (w.viaSql) Vector.empty else ok.map(r => r.sec - r.callSec)) :+ (rddSec - rddCallSec)
      val traced  = ok.filter(_.traced).map(r => st.countsFor(r.index))
      val heaviest = traced.map(_.stageTaskSec.values.maxBy(_.sum).toVector)
      def med(xs: Seq[Double]) = Bench.median(xs)
      def warmMed(traced: Boolean) = med(ok.filter(r => r.index > 0 && r.traced == traced).map(_.sec))

      ListMap(
        "data.graph_s"            -> (med(graphSecs), "s"),
        "adj.opt_s"               -> (med(reports.map(_.optimizationSec)), "s"),
        "adj.pre_s"               -> (med(reports.map(_.preComputingSec)), "s"),
        "adj.comm_s"              -> (med(reports.map(_.communicationSec)), "s"),
        "adj.comp_s"              -> (med(reports.map(_.computationSec)), "s"),
        "adj.consume_s"           -> (med(consumes), "s"),
        "adj.alpha_calib_s"       -> (calib("adj.alpha_calib_s"), "s"),
        "adj.betapre_calib_s"     -> (calib("adj.betapre_calib_s"), "s"),
        "adj.alg2_s"              -> (alg2Sec, "s"),
        "adj.cost_ratio"          -> (med(reports.map(_.plan.estimatedSec)) / querySec, "ratio"),
        "adj.plan_flips"          -> (plans.warmFlips.toDouble, "count"),
        "adj.first_plan_flip"     -> (plans.firstFlip.toDouble, "count"),
        "sampling.s"              -> (sampler.totalWallSec, "s"),
        "sampling.driver_mb"      -> (st.countsFor(OptimizeId).resultBytes / 1e6, "MB"),
        "sampling.beta_raw"       -> (sampler.betaRaw, "1/s"),
        "ghd.decompose_s"         -> (decomposeSec, "s"),
        "hcube.shares_s"          -> (sharesSec, "s"),
        "hcube.shuffle_records"   -> (med(traced.map(_.shuffleRecs.toDouble)), "count"),
        "hcube.shuffle_mb"        -> (med(traced.map(_.shuffleBytes / 1e6)), "MB"),
        "hcube.predicted_tuples"  -> (predicted, "count"),
        "hcube.actual_copies"     -> (perCube.map(_._2).sum.toDouble, "count"),
        "hcube.cubesfor_per_s"    -> (rels.length * rows.length / cubesForSec, "1/s"),
        "exec.jobs"               -> (med(traced.map(_.jobs.toDouble)), "count"),
        "exec.tasks"              -> (med(traced.map(_.tasks.toDouble)), "count"),
        "exec.cube_max_s"         -> (med(heaviest.map(_.max)), "s"),
        "exec.cube_median_s"      -> (med(heaviest.map(med)), "s"),
        "lftj.trie_build_per_s"   -> (perRel.map(_.length).sum / buildSec, "1/s"),
        "lftj.ext_per_s"          -> (stats.extensions / lfSec, "1/s"),
        "lftj.extensions"         -> (stats.extensions.toDouble, "count"),
      ) ++ stats.levelCounts.indices.map(l => s"lftj.level_count.L$l" -> (stats.levelCounts(l).toDouble, "count")) ++
      ListMap(
        "lftj.yield"              -> (outRows.toDouble / math.max(1L, stats.extensions), "ratio"),
        "catalyst.plan_s"         -> (planSec, "s"),
        "catalyst.convert_s"      -> (querySec - rddSec, "s"),
        "trace.overhead_s"        -> (warmMed(traced = true) - warmMed(traced = false), "s"),
      )
    } finally sc.removeSparkListener(st)
  }

  def timed[T](body: => T): (T, Double) = {
    val a = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - a) / 1e9)
  }

  def medianTime(reps: Int)(body: => Any): Double = Bench.median((1 to reps).map(_ => timed(body)._2))
}
