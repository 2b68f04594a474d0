package repro.core

import scala.collection.mutable.ArrayBuffer

/** Bernoulli Time-Biased Sampling (B-TBS) — Algorithm 4 / Appendix A.
  *
  * Accepts every arriving item and thereafter retains each sample item per
  * step with probability e^{-λ}, giving Pr[x ∈ S_{t'}] = e^{-λ(t'−t)} for
  * x ∈ B_t and hence the relative-inclusion property (1). The user cannot
  * control the sample size, which drifts to b/(1−e^{-λ}) (Remark 1); this is
  * the scheme of [32] and equals T-TBS with q = 1.
  */
final class BTBS[P](val lambda: Double, seed: Long) extends Sampler[P] {
  require(lambda >= 0, "lambda must be nonnegative")
  private val p = math.exp(-lambda)
  private[repro] val rng = new Rng(seed)
  private val s = ArrayBuffer.empty[Item[P]]

  override def name: String = "B-TBS"

  override def processBatch(batch: IndexedSeq[Item[P]]): Unit = {
    LatentSample.retainRandom(s, rng.binomial(s.size, p).toInt, rng)
    s ++= batch // accept all arrivals
  }

  override def sample: IndexedSeq[Item[P]] = Sampler.snapshot(s)
}
