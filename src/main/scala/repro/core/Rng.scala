package repro.core

import scala.collection.immutable.ArraySeq

/** Pseudo-random substrate for the sampling algorithms.
  *
  * Wraps a seeded `java.util.Random` and provides the random variates the
  * paper's algorithms need: binomial (T-TBS lines 6/8, B-TBS), hypergeometric
  * (B-RS line 5), multivariate hypergeometric (distributed decisions, §5.3),
  * stochastic rounding (R-TBS line 16), and uniform subset sampling without
  * replacement (`Sample(A, m)` throughout).
  *
  * All draws are deterministic in the seed, so every experiment in the repo
  * is reproducible; distributed workers derive independent sub-streams via
  * [[Rng.split]] (a jump-ahead substitute in the spirit of [20]).
  */
final class Rng(seed: Long) extends Serializable {
  private val r = new java.util.Random(seed)

  /** Uniform double in [0, 1). */
  def uniform(): Double = r.nextDouble()

  /** Uniform int in [0, bound). */
  def nextInt(bound: Int): Int = r.nextInt(bound)

  /** Standard normal variate. */
  def gaussian(): Double = r.nextGaussian()

  /** Derive an independent generator; used to hand workers their own
    * statistically independent sub-streams.
    */
  def split(streamId: Long): Rng =
    new Rng(scala.util.hashing.MurmurHash3.productHash((seed, streamId)).toLong ^ (streamId * 0x9E3779B97F4A7C15L))

  /** Number of successes in `n` independent Bernoulli(p) trials.
    *
    * Uses CDF inversion when n·min(p,1−p) is small (expected O(np) steps) and
    * an exact O(n) trial loop otherwise — all call sites in this repo have
    * n ≤ ~1e6, so the exact path is cheap and avoids approximation error that
    * would pollute the statistical tests.
    */
  def binomial(n: Long, p: Double): Long = {
    require(p >= 0 && p <= 1, s"p=$p out of [0,1]")
    if (n <= 0 || p == 0.0) return 0L
    if (p == 1.0) return n
    if (p > 0.5) return n - binomial(n, 1.0 - p)
    if (n * p < 30 && n * math.log1p(-p) > -700) {
      // Inversion via the recurrence P(k+1) = P(k) * (n-k)/(k+1) * p/(1-p).
      val q = 1.0 - p
      var k = 0L
      var pk = math.exp(n * math.log(q)) // P(X = 0)
      var cdf = pk
      val u = uniform()
      while (cdf < u && k < n) {
        pk *= (n - k).toDouble / (k + 1).toDouble * (p / q)
        k += 1
        cdf += pk
      }
      k
    } else {
      var successes = 0L
      var i = 0L
      while (i < n) { if (r.nextDouble() < p) successes += 1; i += 1 }
      successes
    }
  }

  /** Hypergeometric(k, a, b): number of "success" items when drawing `k`
    * items without replacement from a population of `a` successes and `b`
    * failures. Exact sequential simulation, O(k); fine for k ≤ ~1e6.
    */
  def hypergeometric(k: Long, a: Long, b: Long): Long = {
    require(k >= 0 && a >= 0 && b >= 0 && k <= a + b, s"bad hypergeometric args k=$k a=$a b=$b")
    var succ = a; var fail = b; var drawn = 0L; var hits = 0L
    while (drawn < k) {
      if (r.nextDouble() * (succ + fail) < succ) { hits += 1; succ -= 1 }
      else fail -= 1
      drawn += 1
    }
    hits
  }

  /** Multivariate hypergeometric split: distribute `m` draws without
    * replacement across strata with sizes `sizes`. Returns per-stratum draw
    * counts summing to `m`. Used by the distributed-decision strategy (§5.3)
    * to tell each worker how many victims/inserts to pick locally.
    */
  def multivariateHypergeometric(m: Long, sizes: IndexedSeq[Long]): IndexedSeq[Long] = {
    val total = sizes.sum
    require(m >= 0 && m <= total, s"m=$m exceeds population $total")
    val out = new Array[Long](sizes.length)
    var remainingDraws = m
    var remainingPop = total
    var i = 0
    while (i < sizes.length && remainingDraws > 0) {
      val rest = remainingPop - sizes(i)
      val d = hypergeometric(remainingDraws, sizes(i), rest)
      out(i) = d
      remainingDraws -= d
      remainingPop -= sizes(i)
      i += 1
    }
    out.toIndexedSeq
  }

  /** Stochastic rounding: ⌊x⌋ with probability ⌈x⌉−x, else ⌈x⌉; E = x.
    * R-TBS line 16 uses this to minimize sample-size variance (Thm 4.4).
    */
  def stochasticRound(x: Double): Long = {
    require(x >= 0, s"x=$x")
    val fl = math.floor(x)
    val frac = x - fl
    fl.toLong + (if (uniform() < frac) 1L else 0L)
  }

  /** Uniform random subset of min(m, |a|) elements, without replacement, in
    * draw order: the elements at [[sampleIndexArray]]`(|a|, m)`. Matches the
    * paper's `Sample(A, m)` contract (never fails on m > |A|). O(m) beyond
    * the index draw; `a` is neither copied nor changed.
    */
  def sampleWithoutReplacement[T](a: IndexedSeq[T], m: Int): IndexedSeq[T] =
    ArraySeq.unsafeWrapArray(sampleIndexArray(a.size, m)).map(a)

  /** Uniform random set of min(m, n) distinct indices from [0, n), in draw
    * order. Dense path (3k ≥ n): partial Fisher–Yates over an `Array[Int]`
    * of 0 until n, O(n) fill + O(k) swaps. Sparse path: rejection against a
    * bit set, O(n/64) words + O(k) expected draws.
    */
  def sampleIndices(n: Int, m: Int): IndexedSeq[Int] = sampleIndexArray(n, m).toVector

  /** [[sampleIndices]] without boxing: the same draws in the same order. */
  private[repro] def sampleIndexArray(n: Int, m: Int): Array[Int] = {
    if (m <= 0 || n <= 0) return Array.emptyIntArray
    val k = math.min(m, n)
    if (k.toLong * 3 >= n) {
      val a = Array.range(0, n)
      var i = 0
      while (i < k) {
        val j = i + r.nextInt(n - i)
        val tmp = a(i); a(i) = a(j); a(j) = tmp
        i += 1
      }
      if (k == n) a else java.util.Arrays.copyOf(a, k)
    } else {
      // Rejection sampling is cheaper when k << n.
      val seen = new java.util.BitSet(n)
      val out = new Array[Int](k)
      var c = 0
      while (c < k) {
        val x = r.nextInt(n)
        if (!seen.get(x)) { seen.set(x); out(c) = x; c += 1 }
      }
      out
    }
  }
}
