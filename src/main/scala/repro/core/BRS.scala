package repro.core

import scala.collection.mutable.ArrayBuffer

/** Batched Reservoir Sampling (B-RS) — Algorithm 5 / Appendix B.
  *
  * Classic bounded-size uniform reservoir sampling adapted to batch arrivals:
  * the number M of new-batch items entering the sample is drawn from a
  * hypergeometric distribution so that S_t is a uniform sample of all items
  * seen. No time biasing (decay rate λ = 0). This is the "Unif" baseline in
  * the paper's quality experiments.
  */
final class BRS[P](val n: Int, seed: Long) extends Sampler[P] {
  require(n > 0, "n must be positive")
  private[repro] val rng = new Rng(seed)
  private val s = ArrayBuffer.empty[Item[P]]
  private var seen: Long = 0L // W: number of items seen so far

  /** Number of items observed so far. */
  def itemsSeen: Long = seen

  override def name: String = "Unif"

  override def processBatch(batch: IndexedSeq[Item[P]]): Unit = {
    val c = math.min(n.toLong, seen + batch.size) // new sample size
    val m = rng.hypergeometric(c, batch.size, seen).toInt
    LatentSample.retainRandom(s, n - m, rng)
    s ++= rng.sampleWithoutReplacement(batch, m)
    seen += batch.size
  }

  override def sample: IndexedSeq[Item[P]] = Sampler.snapshot(s)
}
