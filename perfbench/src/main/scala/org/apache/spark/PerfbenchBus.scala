package org.apache.spark

/** Lets the benchmark wait until every listener event posted so far has been
  * delivered, so per-layer counters are complete when they are read. The
  * listener bus is package-private to Spark, hence this package.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
