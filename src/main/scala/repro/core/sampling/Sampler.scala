package repro.core.sampling

import scala.annotation.unused

import org.apache.spark.sql.SparkSession

import repro.core.hcube.Rel
import repro.core.lftj.{Leapfrog, LeapfrogStats, TrieRelation}
import repro.core.sampling.Sampler.{Estimate, MaxExtensionsPerSample, Seed}

/** Sampling-based cardinality estimation (Sec. IV).
  *
  * To estimate |T| for a (sub-)query, pick an anchor attribute A, compute
  * val(A) = ∩_R π_A R over the relations containing A, draw k uniform
  * samples from it, semi-join-reduce the database against each sample, and
  * run a Leapfrog constrained to it: |T| ≈ |val(A)| · mean(|T_{A=a}|). The
  * Chernoff–Hoeffding bound (Lemma 2) makes the error ≤ p·b with confidence
  * 1-δ for k = ⌈-0.5 p⁻² ln(2/δ)⌉ samples.
  *
  * Every step but the draw is a Leapfrog step over tries with A at level 0:
  * val(A) is the join of level 0 alone, and fixing level 0 to a is the
  * semi-join R ⋉ {a}. A relation's trie is its sorted copy with the
  * attributes of the estimate first; the prefix over them is the
  * projection, so one copy per (backing RDD, column order) serves every
  * estimate.
  *
  * The same runs also yield β (partial bindings extended per second), reused
  * by the cost model, as the paper prescribes.
  *
  * Scale note (DESIGN.md §3): the paper runs the val(A) intersection and
  * semi-join reduction as distributed jobs because its inputs are 10⁷–10⁸
  * tuples. At this reproduction's 1/400 scale, per-job scheduling overhead
  * would dwarf the work, so each backing relation is pulled to the driver
  * once and sorted once per column order, and the identical
  * intersect → sample → semi-join → constrained-Leapfrog protocol runs
  * locally. The distributed one-round machinery lives in `repro.core.hcube`
  * / `repro.core.exec` and is exercised by the execution phases.
  *
  * Estimates are memoized per (attribute set, relation subset). `spark` is
  * unused (sampling runs on the driver), but the benchmark passes it.
  */
final class Sampler(@unused spark: SparkSession, rels: IndexedSeq[Rel], val samples: Int) {

  private val memo = collection.mutable.Map.empty[(Set[Int], Vector[Int]), Estimate]

  // One pull per distinct backing RDD (the workload binds every atom to a
  // copy of the same graph, so this is usually a single collect), and one
  // sorted copy per backing RDD and column order.
  private val fullCache = collection.mutable.Map.empty[Int, Array[Array[Long]]]
  private val trieCache = collection.mutable.Map.empty[(Int, Vector[Int]), TrieRelation]
  private def sorted(i: Int, cols: Vector[Int]): TrieRelation = {
    val rdd = rels(i).rdd
    // Input column c goes to position cols.indexOf(c).
    trieCache.getOrElseUpdate((rdd.id, cols),
      TrieRelation.build(cols.indices, cols.indexOf(_), fullCache.getOrElseUpdate(rdd.id, rdd.collect())))
  }

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

    // Attributes held by more active relations come first; the first is the
    // anchor A.
    val ordAttrs = attrSet.toVector.sortBy(a => (-active.count(i => rels(i).attrs.contains(a)), a))
    val lvl      = ordAttrs.zipWithIndex.toMap
    val anchor   = ordAttrs(0)
    val tries = active.map { i =>
      val attrs = rels(i).attrs
      val cols  = attrs.indices.sortBy(c => lvl.getOrElse(attrs(c), Int.MaxValue)).toVector
      sorted(i, cols).atLevels(cols.flatMap(c => lvl.get(attrs(c))).toArray)
    }

    // val(A) = ∩ π_A R over the relations containing A. It stays a hash set
    // because its iteration order is the pool the samples are drawn from:
    // drawing from the sorted values picks other samples, and with them
    // other estimates and plans.
    val valSet = new Leapfrog(tries.filter(_.levels(0) == 0).map(_.atLevels(Array(0))), 1).map(_(0)).toSet
    if (valSet.isEmpty) {
      wallSecTotal += (System.nanoTime() - t0) / 1e9
      return Estimate(0.0, 0L, anchor)
    }

    // Uniform sample from val(A), deterministic in (seed, attrSet, rels): a
    // partial Fisher-Yates shuffle of its first `samples` positions.
    val rnd   = new scala.util.Random(Seed ^ attrSet.hashCode ^ relIdxs.hashCode)
    val pool  = valSet.toArray
    val drawn = pool.indices.take(samples).map { i =>
      val j = i + rnd.nextInt(pool.length - i)
      val v = pool(j); pool(j) = pool(i); pool(i) = v
      v
    }

    // Deviation from the paper (documented in DESIGN.md): each per-sample
    // constrained Leapfrog is stopped after `MaxExtensionsPerSample`
    // extensions. On heavy hubs a single |T_{A=a}| evaluation can cost a
    // large fraction of the query itself; the capped count is a lower bound
    // that preserves the order of magnitude the optimizer needs.
    val stats   = new LeapfrogStats(ordAttrs.length)
    val tLocal0 = System.nanoTime()
    val total   = drawn.map { a =>
      val lf    = new Leapfrog(tries, ordAttrs.length, firstFixed = Some(a), stats = stats)
      val start = stats.extensions
      var c     = 0L
      while (lf.hasNext && stats.extensions - start < MaxExtensionsPerSample) {
        lf.next(); c += 1
      }
      c
    }.sum
    extensionsTotal += stats.extensions
    extensionSecTotal += (System.nanoTime() - tLocal0) / 1e9

    wallSecTotal += (System.nanoTime() - t0) / 1e9
    Estimate(valSet.size * (total.toDouble / drawn.length), valSet.size.toLong, anchor)
  }
}

object Sampler {

  private val Seed                   = 42L
  private val MaxExtensionsPerSample = 200000L

  /** @param card    estimated cardinality of the (projected) join
    * @param valA    |val(A)| for the anchor attribute
    * @param anchor  the anchor attribute id
    */
  final case class Estimate(card: Double, valA: Long, anchor: Int)
}
