package org.apache.spark

/** Reaches the driver's listener bus, which Spark keeps package-private. */
object AdjbenchAccess {

  /** Blocks until every posted event has reached the listeners. */
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
