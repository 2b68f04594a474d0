package repro.core

import scala.collection.mutable.ArrayDeque

/** Count-based sliding window ("SW" baseline, §6.2): retains the most recent
  * `n` items, forgetting everything older — the all-or-nothing inclusion
  * behaviour whose lack of robustness the paper's experiments expose.
  */
final class SlidingWindow[P](val n: Int) extends Sampler[P] {
  require(n > 0, "n must be positive")
  private val q = ArrayDeque.empty[Item[P]]

  override def name: String = "SW"

  override def processBatch(batch: IndexedSeq[Item[P]]): Unit = {
    q ++= batch
    while (q.size > n) q.removeHead()
  }

  override def sample: IndexedSeq[Item[P]] = Sampler.snapshot(q)
}
