package repro.core.lftj

import repro.core.hcube.{HCube, Shares}
import repro.core.hypergraph.QueryLibrary
import repro.data.GraphData

/** Microbenchmark of the Leapfrog kernel alone, on one thread, without Spark:
  * routes the AS graph (seed 12) to the hypercubes of `Shares.optimize` with
  * a budget of 4, builds every cube's tries once (and times as many
  * re-routings and rebuilds as repetitions), and times Leapfrog over all
  * cubes for Q5 (textual order, as communication-first runs it), Q4 and Q6
  * (the co-optimized orders of the benchmark's modal plans, over the raw
  * atoms). Prints, per query:
  *  - the median and range of the repetitions, and the summed rows,
  *    extensions and level counts, which must not change with a kernel change;
  *  - the median seconds to route the graph to the cubes, and apart from
  *    it the median seconds to build every cube's tries, offsets included;
  *  - per level, its participants: the atom, the column read, the layout of
  *    its seeks (`offsets` in how many cubes, else `gallop`) and the summed
  *    rows of its tries; then the times it was opened, the opens replayed
  *    from the memo (`hits`) and the memo's stored keys plus bindings
  *    (`stored`), next to the cubes' summed input tuples, the memo's cap.
  *
  * {{{
  * sbt "Test/runMain repro.core.lftj.LeapfrogBench"
  * }}}
  */
object LeapfrogBench {

  private val Budget = 4
  private val Reps   = 5

  def main(args: Array[String]): Unit = {
    val spec  = GraphData.as_
    val edges = GraphData.scaleFreeEdges(spec.nodes, spec.m, spec.closure, spec.seed)
      .flatMap { case (u, v) => Seq(Array(u, v), Array(v, u)) }
    println(s"LeapfrogBench: ${spec.name} seed ${spec.seed}, ${edges.length} edge rows, budget $Budget, $Reps reps")
    for ((name, q, ord) <- Seq(
        ("Q5", QueryLibrary.q5, Array(0, 1, 2, 3, 4)),
        ("Q4", QueryLibrary.q4, Array(1, 4, 0, 3, 2)),
        ("Q6", QueryLibrary.q6, Array(1, 4, 0, 2, 3)))) {
      val attrs    = q.atoms.map(_.attrs.map(q.attrId))
      val lvl      = ord.zipWithIndex.toMap
      val inputs   = route(attrs, q.numAttrs, edges)
      def build()  = inputs.map(rs => rs.indices.map(ri => TrieRelation.build(attrs(ri), lvl, rs(ri))))
      val cubes    = build()
      val routeSec = medianSec(route(attrs, q.numAttrs, edges))
      val buildSec = medianSec(build())
      val runs = (1 to Reps).map { _ =>
        val stats = new LeapfrogStats(ord.length)
        var rows  = 0L
        val t0    = System.nanoTime()
        cubes.foreach { ts =>
          val lf = new Leapfrog(ts, ord.length, stats = stats)
          while (lf.hasNext) { lf.next(); rows += lf.multiplicity }
        }
        ((System.nanoTime() - t0) / 1e9, rows, stats)
      }
      val secs = runs.map(_._1).sorted
      val (_, rows, stats) = runs.head
      require(runs.forall(r => r._2 == rows && r._3.extensions == stats.extensions &&
        r._3.levelCounts.sameElements(stats.levelCounts) && r._3.memoHits.sameElements(stats.memoHits) &&
        r._3.memoStored.sameElements(stats.memoStored)), s"$name: counts differ between repetitions")
      println(f"$name ord=${ord.mkString(",")} cubes=${cubes.length} median=${secs(secs.length / 2)}%.3f s " +
        f"[${secs.head}%.3f, ${secs.last}%.3f] rows=$rows extensions=${stats.extensions} " +
        s"levels=${stats.levelCounts.mkString(",")}")
      println(f"  route median=$routeSec%.3f s, build median=$buildSec%.3f s, " +
        s"memo cap ${cubes.map(_.map(_.size.toLong).sum).sum} tuples")
      for (lvl <- ord.indices) {
        val parts = cubes.head.indices.filter(ri => cubes.head(ri).levels.contains(lvl)).map { ri =>
          val ts     = cubes.map(_(ri))
          val col    = ts.head.levels.indexOf(lvl)
          val dense  = if (col == 0) ts.count(_.offsets != null) else 0
          val layout = if (dense == 0) "gallop" else s"offsets $dense/${ts.length}"
          s"R${ri + 1} col $col $layout rows=${ts.map(_.size.toLong).sum}"
        }
        val opens = if (lvl == 0) cubes.length.toLong else stats.levelCounts(lvl - 1)
        println(s"  L$lvl: ${parts.mkString("; ")} | opens=$opens hits=${stats.memoHits(lvl)} " +
          s"stored=${stats.memoStored(lvl)}")
      }
    }
  }

  /** The median seconds of `Reps` runs of `body`. */
  private def medianSec(body: => Any): Double =
    (1 to Reps).map { _ =>
      val t0 = System.nanoTime()
      body
      (System.nanoTime() - t0) / 1e9
    }.sorted.apply(Reps / 2)

  /** The inputs of every non-empty hypercube: per relation (atom order, with
    * attribute ids `attrs`), the edge tuples routed to the cube.
    */
  private def route(attrs: Seq[Vector[Int]], numAttrs: Int, edges: Seq[Array[Long]]): Seq[IndexedSeq[Vector[Array[Long]]]] = {
    val p       = Shares.optimize(attrs.map(a => (a.toSet, edges.length.toLong)), numAttrs, Budget).p
    val perCube = Array.fill(p.product, attrs.length)(Vector.newBuilder[Array[Long]])
    for (ri <- attrs.indices) {
      // The reused router of the Pull shuffle's map side.
      val router = new HCube.Router(attrs(ri), p)
      edges.foreach { t =>
        val n = router.route(t)
        var k = 0
        while (k < n) { perCube(router.ids(k))(ri) += t; k += 1 }
      }
    }
    perCube.toSeq.map(_.map(_.result()).toIndexedSeq).filter(_.forall(_.nonEmpty))
  }
}
