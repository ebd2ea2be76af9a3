package repro.core

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.{SparkContext, TestListenerBus}
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}

import repro.core.exec.MultiwayJoin

/** Counts hypercube evaluations while registered: for each one-round join
  * (keyed by the id of its cube-stats accumulator) and each of its cubes,
  * the number of tasks that drained the cube.
  */
final class CubeEvaluations private (sc: SparkContext) extends SparkListener {
  private val counts = mutable.Map.empty[(Long, Int), Int]

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for {
      a     <- e.taskInfo.accumulables if a.name.contains(MultiwayJoin.AccumulatorName)
      added <- a.update.toSeq
      (cube, _) <- added.asInstanceOf[java.util.List[(Int, _)]].asScala
    } counts((a.id, cube)) = counts.getOrElse((a.id, cube), 0) + 1
  }

  /** Evaluations per cube, per join, counting every task that has ended. */
  def perJoin(): Map[Long, Map[Int, Int]] = {
    TestListenerBus.drain(sc)
    synchronized(counts.toMap).groupMap(_._1._1)(kv => kv._1._2 -> kv._2).map { case (j, cs) => j -> cs.toMap }
  }
}

object CubeEvaluations {

  /** Runs `body` with a counter registered for its duration. */
  def during[T](sc: SparkContext)(body: CubeEvaluations => T): T = {
    val c = new CubeEvaluations(sc)
    sc.addSparkListener(c)
    try body(c)
    finally sc.removeSparkListener(c)
  }
}
