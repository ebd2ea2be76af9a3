package repro.core.sampling

import org.apache.spark.sql.SparkSession

import repro.core.hcube.Rel
import repro.core.lftj.{Leapfrog, LeapfrogStats, TrieRelation}
import repro.core.sampling.Sampler.{Estimate, MaxExtensionsPerSample, Seed}

/** Sampling-based cardinality estimation (Sec. IV).
  *
  * To estimate |T| for a (sub-)query, pick an anchor attribute A, compute
  * val(A) = ∩_R π_A R over the relations containing A, draw k uniform
  * samples from it, semi-join-reduce the database against the sample, and
  * run a Leapfrog constrained to each sampled value over the reduced data:
  * |T| ≈ |val(A)| · mean(|T_{A=a}|). The Chernoff–Hoeffding bound (Lemma 2)
  * makes the error ≤ p·b with confidence 1-δ for k = ⌈-0.5 p⁻² ln(2/δ)⌉
  * samples.
  *
  * The same runs also yield β (partial bindings extended per second), reused
  * by the cost model, as the paper prescribes.
  *
  * Scale note (DESIGN.md §3): the paper runs the val(A) intersection and
  * semi-join reduction as distributed jobs because its inputs are 10⁷–10⁸
  * tuples. At this reproduction's 1/400 scale, per-job scheduling overhead
  * would dwarf the work, so each backing relation is pulled to the driver
  * once (memoized across estimates) and the identical
  * intersect → sample → semi-join → constrained-Leapfrog protocol runs
  * locally. The distributed one-round machinery lives in `repro.core.hcube`
  * / `repro.core.exec` and is exercised by the execution phases.
  *
  * Estimates are memoized per (attribute set, relation subset).
  */
final class Sampler(spark: SparkSession, rels: IndexedSeq[Rel], val samples: Int) {

  private val memo = collection.mutable.Map.empty[(Set[Int], Vector[Int]), Estimate]

  // One pull per distinct backing RDD (the workload binds every atom to a
  // copy of the same graph, so this is usually a single collect).
  private val fullCache = collection.mutable.Map.empty[Int, Array[Array[Long]]]
  private def fullRows(i: Int): Array[Array[Long]] =
    fullCache.getOrElseUpdate(rels(i).rdd.id, rels(i).rdd.collect())

  private var extensionsTotal   = 0L
  private var extensionSecTotal = 0.0
  private var wallSecTotal      = 0.0

  /** Aggregate sampling wall time so far (the paper folds this into the
    * Optimization cost column).
    */
  def totalWallSec: Double = wallSecTotal

  /** β measured over all sampling runs: partial-binding extensions / sec on
    * one in-memory worker (Sec. III-B's "reusing statistics gathered during
    * sampling").
    */
  def betaRaw: Double =
    if (extensionSecTotal <= 0 || extensionsTotal == 0) 2e6 else extensionsTotal / extensionSecTotal

  /** Estimates |⋈_{i ∈ relIdxs} π_{attrs(R_i) ∩ attrSet} R_i|. */
  def estimateJoin(attrSet: Set[Int], relIdxs: Seq[Int]): Estimate = {
    val key = (attrSet, relIdxs.toVector.sorted)
    memo.getOrElseUpdate(key, compute(attrSet, key._2))
  }

  private def compute(attrSet: Set[Int], relIdxs: Vector[Int]): Estimate = {
    val t0 = System.nanoTime()
    // Relations that constrain the projection (nonempty attr overlap).
    val active = relIdxs.filter(i => rels(i).attrs.exists(attrSet.contains))
    require(active.nonEmpty, s"no relation touches $attrSet")

    // Anchor = attribute of attrSet contained in the most active relations.
    val anchor = attrSet.toSeq
      .map(a => (a, active.count(i => rels(i).attrs.contains(a))))
      .filter(_._2 > 0)
      .maxBy { case (a, c) => (c, -a) }._1

    val withA = active.filter(i => rels(i).attrs.contains(anchor))
    def colOf(i: Int, a: Int): Int = rels(i).attrs.indexOf(a)

    // val(A) = ∩ π_A R over the relations containing A.
    val valSet = withA
      .map { i =>
        val c = colOf(i, anchor)
        val s = collection.mutable.LongMap.empty[Unit]
        fullRows(i).foreach(t => s.update(t(c), ()))
        s.keySet
      }
      .reduce(_ intersect _)
    val valCount = valSet.size.toLong
    if (valCount == 0L) {
      val sec = (System.nanoTime() - t0) / 1e9
      wallSecTotal += sec
      return Estimate(0.0, 0L, anchor, sec)
    }

    // Uniform sample from val(A), deterministic in (seed, attrSet, rels).
    val rnd   = new scala.util.Random(Seed ^ attrSet.hashCode ^ relIdxs.hashCode)
    val pool  = valSet.toArray
    val drawn =
      if (pool.length <= samples) pool
      else {
        // Partial Fisher-Yates for the first `samples` positions.
        var i = 0
        while (i < samples) {
          val j = i + rnd.nextInt(pool.length - i)
          val tmp = pool(i); pool(i) = pool(j); pool(j) = tmp
          i += 1
        }
        pool.take(samples)
      }
    val sampleSet = drawn.toSet

    // Semi-join reduction + projection of the database.
    val localRels: Vector[(Vector[Int], Array[Array[Long]])] = active.map { i =>
      val projAttrs = rels(i).attrs.filter(attrSet.contains)
      val projIdx   = projAttrs.map(a => colOf(i, a))
      val base      = fullRows(i)
      val rows =
        if (rels(i).attrs.contains(anchor)) {
          val c = colOf(i, anchor)
          base.iterator.filter(t => sampleSet.contains(t(c)))
            .map(t => projIdx.map(t).toArray).toArray
        } else base.map(t => projIdx.map(t).toArray)
      (projAttrs, rows)
    }

    // Local constrained Leapfrog per sample over the reduced database.
    val ordAttrs = (anchor +: attrSet.toVector.filterNot(_ == anchor).sortBy { a =>
      (-active.count(i => rels(i).attrs.contains(a)), a)
    }).toArray
    val lvl   = ordAttrs.zipWithIndex.toMap
    val tries = localRels.map { case (attrs, rows) => TrieRelation.build(attrs, lvl, rows) }

    // Deviation from the paper (documented in DESIGN.md): each per-sample
    // constrained Leapfrog is stopped after `MaxExtensionsPerSample`
    // extensions. On heavy hubs a single |T_{A=a}| evaluation can cost a
    // large fraction of the query itself; the capped count is a lower bound
    // that preserves the order of magnitude the optimizer needs.
    val stats   = new LeapfrogStats(ordAttrs.length)
    val tLocal0 = System.nanoTime()
    var total   = 0.0
    drawn.foreach { a =>
      val lf    = new Leapfrog(tries, ordAttrs.length, firstFixed = Some(a), stats = stats)
      val start = stats.extensions
      var c     = 0L
      while (lf.hasNext && stats.extensions - start < MaxExtensionsPerSample) {
        lf.next(); c += 1
      }
      total += c
    }
    val localSec = (System.nanoTime() - tLocal0) / 1e9
    extensionsTotal += stats.extensions
    extensionSecTotal += localSec

    val card = valCount.toDouble * (total / drawn.length)
    val sec  = (System.nanoTime() - t0) / 1e9
    wallSecTotal += sec
    Estimate(card, valCount, anchor, sec)
  }
}

object Sampler {

  private val Seed                   = 42L
  private val MaxExtensionsPerSample = 200000L

  /** @param card    estimated cardinality of the (projected) join
    * @param valA    |val(A)| for the anchor attribute
    * @param anchor  the anchor attribute id
    * @param wallSec wall time of this estimate
    */
  final case class Estimate(card: Double, valA: Long, anchor: Int, wallSec: Double)
}
