package repro.core

/** Reservoir-based Time-Biased Sampling (R-TBS) — Algorithm 2, the paper's
  * primary contribution.
  *
  * Maintains a latent fractional sample of weight C = min(n, W), where W is
  * the exponentially decayed total weight of all items seen. Enforces the
  * inclusion invariant Pr[i ∈ S_t] = (C_t/W_t)·w_t(i) (Theorem 4.2), which
  * implies the relative-inclusion property (1); the sample never exceeds n
  * items, maximizes expected sample size when unsaturated (Theorem 4.3) and
  * minimizes sample-size variance (Theorem 4.4).
  *
  * Cost per batch of |B| items, with the sample at weight C ≤ n
  * (see [[LatentSample]]): unsaturated O(|B|) plus the Algorithm-3 deletes
  * of the decay, O(⌊C⌋ − ⌊C·e^{-λ}⌋); overshoot the same plus the deletes
  * down to n; undershoot O(|B|) plus the deletes of the decay from n;
  * saturated O(m) for the m swapped items. [[sample]] is one array copy of
  * the sample.
  *
  * @param n       maximum sample size (reservoir bound)
  * @param lambda  decay rate λ ≥ 0 per unit time
  * @param seed    RNG seed (deterministic runs)
  */
final class RTBS[P](val n: Int, val lambda: Double, seed: Long) extends Sampler[P] {
  require(n > 0, "n must be positive")
  require(lambda >= 0, "lambda must be nonnegative")

  private[repro] val rng = new Rng(seed)
  private val latent = new LatentSample[P](rng)
  private var totalW: Double = 0.0

  /** Total decayed weight W_t of all items seen so far. */
  def totalWeight: Double = totalW

  /** Sample weight C_t = min(n, W_t) = expected realized sample size. */
  def sampleWeight: Double = latent.C

  /** Physical storage used, always ≤ n + 1 conceptually but ≤ n realized. */
  def footprint: Int = latent.footprint

  override def name: String = "R-TBS"

  override def processBatch(batch: IndexedSeq[Item[P]]): Unit = step(batch, 1.0)

  /** Advance by an arbitrary real-valued time gap `dt` then ingest `batch`
    * (§2: multiply weights by e^{-λ(t'-t)} for non-integer arrival times).
    */
  def step(batch: IndexedSeq[Item[P]], dt: Double): Unit = {
    require(dt >= 0, "time must not flow backwards")
    val d = math.exp(-lambda * dt)
    if (totalW < n) {
      // Sample has been unsaturated: C = W.
      totalW = LatentSample.snap(totalW * d) // decay current items
      if (totalW > 0 && latent.C > 0) latent.downsampleTo(totalW)
      else if (totalW == 0) latent.clear()
      latent.appendFull(batch) // accept all items in B_t
      totalW = LatentSample.snap(totalW + batch.size)
      if (totalW > n) {
        latent.downsampleTo(n) // adjust for overshoot; sample now saturated
      }
    } else {
      // Sample has been saturated: C = n, no partial item.
      totalW = LatentSample.snap(totalW * d + batch.size)
      if (totalW >= n) {
        // Still saturated: stochastically round the expected batch acceptance
        // count m = |B_t|·n/W and swap m victims for m random batch items.
        val m = rng.stochasticRound(batch.size * n.toDouble / totalW).toInt
        if (m > 0) latent.replaceRandomFull(batch, m)
      } else {
        // Undershoot: decay the old sample down to e^{-λ·dt}·W_{t-1}, then
        // accept every batch item as a full item.
        latent.downsampleTo(totalW - batch.size)
        latent.appendFull(batch)
      }
    }
  }

  override def sample: IndexedSeq[Item[P]] = latent.realize()

  /** Full items plus the partial item regardless of realization — the
    * physical reservoir content (used by tests and benches).
    */
  def latentItems: IndexedSeq[Item[P]] = latent.fullItems ++ latent.partialItem
}
