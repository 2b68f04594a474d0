package repro.core

import scala.collection.mutable.ArrayBuffer

/** Targeted-Size Time-Biased Sampling (T-TBS) — Algorithm 1.
  *
  * Retains each sample item per step with probability p = e^{-λ} and accepts
  * each arriving item with probability q = n(1−e^{-λ})/b, making n the
  * equilibrium sample size (Theorem 3.1). Requires the mean batch size b to
  * be known, constant, and ≥ n(1−e^{-λ}) so that q ≤ 1; the sample size is
  * only probabilistically controlled (it can overflow).
  *
  * @param n       target sample size
  * @param lambda  decay rate λ ≥ 0
  * @param b       assumed mean batch size, b ≥ n(1−e^{-λ})
  * @param seed    RNG seed
  */
final class TTBS[P](val n: Int, val lambda: Double, val b: Double, seed: Long) extends Sampler[P] {
  require(n > 0 && lambda >= 0 && b > 0, "bad parameters")
  private val p = math.exp(-lambda)
  private val q = n * (1.0 - p) / b
  require(q <= 1.0 + 1e-12, s"mean batch size b=$b too small: need b >= n(1-e^-lambda)=${n * (1 - p)}")

  private[repro] val rng = new Rng(seed)
  private val s = ArrayBuffer.empty[Item[P]]

  /** Retention probability p = e^{-λ}. */
  def retentionProb: Double = p

  /** Batch down-sampling rate q = n(1−e^{-λ})/b. */
  def acceptProb: Double = math.min(q, 1.0)

  override def name: String = "T-TBS"

  override def processBatch(batch: IndexedSeq[Item[P]]): Unit = {
    val m = rng.binomial(s.size, p).toInt // simulate |S| retention trials
    LatentSample.retainRandom(s, m, rng)
    val k = rng.binomial(batch.size, acceptProb).toInt // down-sample new batch
    s ++= rng.sampleWithoutReplacement(batch, k)
  }

  override def sample: IndexedSeq[Item[P]] = Sampler.snapshot(s)
}
