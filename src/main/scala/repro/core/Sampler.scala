package repro.core

import scala.collection.immutable.ArraySeq

/** An item flowing through a batch-arrival stream (§2 of the paper).
  *
  * @param id       globally unique identifier (lets tests track inclusion
  *                 frequencies per item)
  * @param batch    index t of the batch B_t the item arrived in; the paper's
  *                 timestamp. Arbitrary real-valued arrival times are handled
  *                 by the samplers via the inter-arrival gap, not stored here.
  * @param payload  the data carried by the item (features, label, ...)
  */
final case class Item[+P](id: Long, batch: Int, payload: P)

/** Common interface for all batch-stream samplers in this repo.
  *
  * A sampler consumes batches `B_1, B_2, ...` in order via [[processBatch]]
  * and exposes the current realized sample S_t via [[sample]]. Implementations
  * are single-node and deterministic in their seed; the distributed versions
  * in `repro.dist` share the same driver-side weight logic.
  */
trait Sampler[P] {

  /** Ingest the next batch (possibly empty) and advance time by one unit. */
  def processBatch(batch: IndexedSeq[Item[P]]): Unit

  /** The current realized sample S_t. For R-TBS this draws the partial item
    * per eq. (2); repeated calls between batches re-randomize only the
    * partial item, matching the paper's "output S" per time step.
    *
    * Every implementation returns an immutable `ArraySeq` built by
    * [[Sampler.snapshot]]: one array copy of the sample, which later batches
    * cannot change. One concrete type for every sampler keeps the callers
    * that index into the sample (kNN scoring loops over it per test point)
    * monomorphic; a mix of collection types measurably slowed them.
    */
  def sample: IndexedSeq[Item[P]]

  /** Human-readable name for bench tables. */
  def name: String
}

object Sampler {

  /** An immutable array-backed copy of `items` followed by `more`, with one
    * array copy; the shared result type of every [[Sampler.sample]]. The
    * array is an `Array[AnyRef]` like the buffers' own, so the copy is a
    * `System.arraycopy` rather than an element-by-element loop.
    */
  private[repro] def snapshot[P](items: collection.IndexedSeq[Item[P]],
                                 more: Iterable[Item[P]] = Nil): ArraySeq[Item[P]] = {
    val out = new Array[AnyRef](items.size + more.size)
    items.copyToArray(out)
    more.copyToArray(out, items.size)
    ArraySeq.unsafeWrapArray(out).asInstanceOf[ArraySeq[Item[P]]]
  }
}
