package repro.core

import scala.collection.mutable.ArrayBuffer

/** A latent "fractional" sample L = (A, π, C) (paper §4.1).
  *
  * `A` holds ⌊C⌋ full items, `π` at most one partial item, and the sample
  * weight `C` is real-valued. The realized sample S includes every full item
  * and the partial item with probability frac(C) (eq. (2)), so E[|S|] = C.
  *
  * Mutability is deliberate: R-TBS updates the sample in place every batch;
  * the structure is confined to a single sampler instance and never shared.
  * `A` is a bag: the order of its items carries no meaning, which lets
  * random deletes fill each hole with the last item ([[LatentSample.removeAt]],
  * O(k) moves for k victims instead of shifting the tail) and lets a swap
  * overwrite its victims in place ([[LatentSample.replaceRandom]]). So every
  * update costs O(items it adds, deletes or overwrites), never O(|A|):
  * [[appendFull]] O(|B|), [[replaceRandomFull]] O(m), [[downsampleTo]]
  * O(⌊C⌋ − ⌊C'⌋) moves (plus an O(|A|/64)-word bit set when few go). Only
  * the snapshots [[fullItems]]/[[realize]] copy A, as one array copy.
  *
  * Class invariants (checked in tests):
  *   - |A| = ⌊C⌋ (after epsilon-snapping of C),
  *   - π is nonempty iff frac(C) > 0 (when C > 0),
  *   - footprint |A| + |π| ≤ ⌊C⌋ + 1.
  */
final class LatentSample[P](rng: Rng) {
  import LatentSample._

  private val full = ArrayBuffer.empty[Item[P]]
  private var partial: Option[Item[P]] = None
  private var weight: Double = 0.0

  /** Current sample weight C. */
  def C: Double = weight

  /** The ⌊C⌋ full items: an immutable snapshot ([[Sampler.snapshot]]). */
  def fullItems: IndexedSeq[Item[P]] = Sampler.snapshot(full)

  /** The partial item, if frac(C) > 0. */
  def partialItem: Option[Item[P]] = partial

  /** Physical storage size |A| + |π|. */
  def footprint: Int = full.size + (if (partial.isDefined) 1 else 0)

  /** Realize S from L per eq. (2): full items surely, partial item w.p.
    * frac(C). One array copy of A ([[Sampler.snapshot]]).
    */
  def realize(): IndexedSeq[Item[P]] = partial match {
    case Some(p) if rng.uniform() < frac(snap(weight)) => Sampler.snapshot(full, partial)
    case _ => Sampler.snapshot(full)
  }

  /** Reset to the empty sample. */
  def clear(): Unit = { full.clear(); partial = None; weight = 0.0 }

  /** Append `items` as full items; C increases by `items.size`. Used when all
    * arriving batch items are accepted with probability 1 (R-TBS lines 9/20).
    */
  def appendFull(items: IterableOnce[Item[P]]): Unit = {
    val before = full.size
    full ++= items
    weight = snap(weight + (full.size - before))
  }

  /** Overwrite min(m, |A|, |batch|) uniformly random full items with as many
    * distinct uniformly random `batch` items ([[LatentSample.replaceRandom]]);
    * C is unchanged. The saturated-case swap (R-TBS line 17), O(m).
    */
  def replaceRandomFull(batch: IndexedSeq[Item[P]], m: Int): Unit =
    replaceRandom(full, batch, m, rng)

  /** Algorithm 3: downsample to target weight `cPrime` (0 ≤ cPrime ≤ C),
    * scaling every item's inclusion probability by exactly cPrime/C
    * (Theorem 4.1). cPrime = C is a no-op; cPrime = 0 empties the sample.
    */
  def downsampleTo(cPrime: Double): Unit = {
    val cOld = snap(weight)
    val cNew = snap(cPrime)
    require(cNew >= 0 && cNew <= cOld + Eps, s"downsample target $cNew outside [0, $cOld]")
    if (cNew <= 0) { clear(); return }
    if (cNew >= cOld) { weight = cNew; return }

    val flOld = math.floor(cOld); val frOld = cOld - flOld
    val flNew = math.floor(cNew); val frNew = cNew - flNew
    val u = rng.uniform()

    if (flNew == 0) {
      // No full items retained: the output is a lone partial item.
      if (partial.isEmpty || u > frOld / cOld) {
        // SWAP1 then eject: a uniformly random ex-full item becomes partial.
        partial = Some(full(rng.nextInt(full.size)))
      } // else the current partial item survives as the partial.
      full.clear()
    } else if (flNew == flOld) {
      // No full items deleted; the partial may be promoted via SWAP1.
      val noSwap = (1.0 - (cNew / cOld) * frOld) / (1.0 - frNew)
      if (u > noSwap) {
        val i = rng.nextInt(full.size)
        val promotedToPartial = full(i)
        partial match {
          case Some(p) => full(i) = p // old partial becomes full
          case None    => removeAt(full, Array(i)) // degenerate; cannot occur when frOld > 0
        }
        partial = Some(promotedToPartial)
      }
    } else {
      // 0 < ⌊C'⌋ < ⌊C⌋: some full items are deleted.
      if (u <= (cNew / cOld) * frOld) {
        // Partial item is promoted to full: keep ⌊C'⌋ random full items, then
        // SWAP1 — one of them becomes the new partial, old partial goes full.
        retainRandom(full, flNew.toInt, rng)
        val i = rng.nextInt(full.size)
        val promotedToPartial = full(i)
        partial match {
          case Some(p) => full(i) = p
          case None    => removeAt(full, Array(i))
        }
        partial = Some(promotedToPartial)
      } else {
        // Partial item is ejected: keep ⌊C'⌋+1 random full items, then MOVE1
        // — one of them becomes the new partial.
        retainRandom(full, flNew.toInt + 1, rng)
        val i = rng.nextInt(full.size)
        partial = Some(full(i))
        removeAt(full, Array(i))
      }
    }
    if (frNew < Eps) partial = None // line 19: no fractional item
    weight = cNew
  }
}

object LatentSample {
  /** Tolerance for treating an accumulated floating-point weight as integral. */
  val Eps: Double = 1e-9

  /** Snap x to the nearest integer when within Eps — keeps ⌊C⌋/frac(C)
    * decisions immune to floating-point drift from repeated e^{-λ} scaling.
    */
  def snap(x: Double): Double = {
    val r = math.rint(x)
    if (math.abs(x - r) < Eps) r else x
  }

  /** frac(x) = x − ⌊x⌋ on a snapped value. */
  def frac(x: Double): Double = x - math.floor(x)

  /** Delete the items at the distinct indices `idx` from `buf` with O(k)
    * moves for k = |idx| (plus sorting `idx`), however large `buf` is. Each
    * hole, visited in descending index order, is filled with the current last
    * item. Lower indices are never moved before they are visited, so exactly
    * the items at `idx` go; survivors may change position, which is fine for
    * every sample buffer in the repo because their order carries no meaning.
    */
  private[repro] def removeAt[T](buf: ArrayBuffer[T], idx: Array[Int]): Unit = {
    val sorted = idx.clone()
    java.util.Arrays.sort(sorted)
    var last = buf.size - 1
    var j = sorted.length - 1
    while (j >= 0) {
      buf(sorted(j)) = buf(last)
      last -= 1
      j -= 1
    }
    buf.dropRightInPlace(sorted.length)
  }

  /** Append to `buf` the items of `items` at the distinct positions `idx`,
    * in one pass over `items` (so in position order), without copying it.
    */
  private[repro] def appendAt[T](buf: ArrayBuffer[T], items: Iterator[T], idx: Array[Int]): Unit = {
    val wanted = new java.util.BitSet()
    idx.foreach(wanted.set)
    var i = 0
    items.foreach { it => if (wanted.get(i)) buf += it; i += 1 }
  }

  /** Keep min(k, |buf|) uniformly random items of `buf` by deleting the
    * others with [[removeAt]]: O(|buf| − k) moves, plus the index draw.
    */
  private[repro] def retainRandom[T](buf: ArrayBuffer[T], k: Int, rng: Rng): Unit =
    removeAt(buf, rng.sampleIndexArray(buf.size, buf.size - k))

  /** Overwrite min(m, |buf|, |batch|) uniformly random items of `buf` with as
    * many distinct uniformly random items of `batch`, in place: the victim
    * slots are drawn first, then the batch positions, and slot j receives
    * the j-th drawn batch item. O(m) writes plus the two index draws, with
    * no sort, shrink or grow, however large `buf` is.
    */
  private[repro] def replaceRandom[T](buf: ArrayBuffer[T], batch: collection.IndexedSeq[T],
                                      m: Int, rng: Rng): Unit = {
    val victims = rng.sampleIndexArray(buf.size, math.min(m, batch.size))
    val picks = rng.sampleIndexArray(batch.size, victims.length)
    var j = 0
    while (j < victims.length) {
      buf(victims(j)) = batch(picks(j))
      j += 1
    }
  }
}
