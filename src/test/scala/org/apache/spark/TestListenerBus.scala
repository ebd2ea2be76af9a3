package org.apache.spark

/** Test access to the listener bus, which Spark keeps package-private. */
object TestListenerBus {

  /** Waits until every listener has seen every event posted so far. */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
