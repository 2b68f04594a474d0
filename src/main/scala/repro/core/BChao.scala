package repro.core

import scala.collection.mutable.ArrayBuffer

/** Batched, time-decayed version of Chao's unequal-probability reservoir
  * scheme (B-Chao) — Algorithms 6 and 7 / Appendix D.
  *
  * Maintains a sample of exactly n items once full. Because all weights are
  * e^{-λ·age} ≤ 1, the newest item always carries the maximum weight, so an
  * item is "overweight" (target inclusion probability n·w/W > 1) only while
  * the total weight W is small relative to n. Overweight items are kept with
  * probability 1 and tracked individually (set V with their weights); all
  * other items live in S with no individual weights.
  *
  * The paper includes B-Chao as the closest prior competitor and shows it
  * VIOLATES the relative-inclusion property (1) during the initial fill-up
  * and whenever the arrival rate is slow relative to the decay rate (items
  * become overweight); our characterization tests demonstrate exactly that.
  */
final class BChao[P](val n: Int, val lambda: Double, seed: Long) extends Sampler[P] {
  require(n > 0 && lambda >= 0, "bad parameters")
  private val decay = math.exp(-lambda)
  private[repro] val rng = new Rng(seed)

  private val s = ArrayBuffer.empty[Item[P]] // non-overweight sample items
  private val v = ArrayBuffer.empty[(Item[P], Double)] // overweight items + weights
  private var w: Double = 0.0 // aggregate decayed weight of all non-overweight items seen

  /** Aggregate decayed weight of non-overweight items (diagnostic). */
  def nonOverweightWeight: Double = w

  /** Number of currently overweight items (diagnostic). */
  def overweightCount: Int = v.size

  override def name: String = "B-Chao"

  override def processBatch(batch: IndexedSeq[Item[P]]): Unit = {
    w *= decay
    v.indices.foreach { i => val (z, wz) = v(i); v(i) = (z, wz * decay) }
    batch.foreach(processItem)
  }

  private def processItem(x: Item[P]): Unit = {
    if (s.size + v.size < n) {
      // Reservoir not full yet: accept with probability 1 (this is where the
      // relative-inclusion property (1) is violated).
      s += x
      w += 1.0
    } else {
      val demoted = ArrayBuffer.empty[(Item[P], Double)] // A: newly non-overweight
      val piX = normalize(x, demoted)
      if (rng.uniform() <= piX) {
        // Accept x; choose a victim, preferentially among demoted items whose
        // inclusion probability must drop from 1 to (n−|V|)·w_z/W.
        var alpha = 0.0
        var victimIdx = -1
        val u = rng.uniform()
        var i = 0
        while (i < demoted.size && victimIdx < 0) {
          val (_, wz) = demoted(i)
          alpha += (1.0 - (n - v.size) * wz / w) / piX
          if (u <= alpha) victimIdx = i
          i += 1
        }
        if (victimIdx >= 0) demoted.remove(victimIdx)
        else if (s.nonEmpty) s.remove(rng.nextInt(s.size)) // uniform victim from S
        else demoted.remove(rng.nextInt(demoted.size)) // corner case: S empty
        if (!v.exists(_._1.id == x.id)) s += x // overweight x already lives in V
      }
      // Demoted items rejoin S (they carry no individual weight any more).
      s ++= demoted.map(_._1)
    }
  }

  /** Algorithm 7: fold the new item x (weight 1) into the bookkeeping,
    * recompute the overweight set V, move newly non-overweight items into
    * `demoted`, and return x's inclusion probability π_x.
    */
  private def normalize(x: Item[P], demoted: ArrayBuffer[(Item[P], Double)]): Double = {
    w += 1.0 + v.map(_._2).sum // aggregate weight incl. new and overweight items
    if (n / w <= 1.0) {
      // x is not overweight; since x has the maximal weight, nothing is.
      demoted ++= v
      v.clear()
      n / w
    } else {
      // x is overweight: keep it with probability 1 and peel off remaining
      // overweight items in decreasing weight order.
      w -= 1.0
      val d = ArrayBuffer[(Item[P], Double)]((x, 1.0))
      var continue = v.nonEmpty
      while (continue) {
        val maxIdx = v.indices.maxBy(i => v(i)._2)
        val (z, wz) = v.remove(maxIdx)
        if ((n - d.size) * wz / w > 1.0) {
          d += ((z, wz)); w -= wz
          continue = v.nonEmpty
        } else {
          demoted += ((z, wz))
          continue = false
        }
      }
      demoted ++= v // remaining items have smaller weights: non-overweight
      v.clear()
      v ++= d
      1.0
    }
  }

  override def sample: IndexedSeq[Item[P]] = Sampler.snapshot(s, v.view.map(_._1))
}
