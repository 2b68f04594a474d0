package repro.dist

import repro.core.{Item, LatentSample, Rng, Sampler}
import scala.collection.mutable.ArrayBuffer

/** Backend abstraction for the reservoir manipulated by the distributed
  * R-TBS driver ([[DRTBS]]).
  *
  * The driver (master) holds all weight bookkeeping and the single partial
  * item, and issues these primitive operations; backends differ in where the
  * full items live and how the random victims/inserts are chosen:
  *
  *   - [[LocalReservoirOps]] — in-memory, for equivalence tests,
  *   - [[CoPartReservoirOps]] — co-partitioned RDD with in-place updates
  *     (§5.2 "co-partitioned reservoir"), centralized or distributed decisions,
  *   - [[KVReservoirOps]] — slot-keyed RDD simulating a distributed key-value
  *     store (§5.2), centralized decisions with repartition or co-located join.
  *
  * @tparam P payload type
  * @tparam B backend batch representation (e.g. `RDD[Item[P]]`)
  */
trait ReservoirOps[P, B] {

  /** Number of full items currently stored. */
  def count: Long

  /** Register the incoming batch and return its size. Must be called once
    * per batch before [[appendAll]]/[[replaceRandom]] on that batch (lets
    * RDD backends cache the batch and collect per-partition sizes once —
    * the aggregation step of §5.1).
    */
  def batchSize(b: B): Long

  /** Delete `k` uniformly random full items. */
  def deleteRandom(k: Long): Unit

  /** Remove and return one uniformly random full item (count must be ≥ 1);
    * used when the driver promotes a full item to the partial slot.
    */
  def extractRandomOne(): Item[P]

  /** Insert a single full item (a demoted partial). */
  def insertOne(item: Item[P]): Unit

  /** Append every item of the (registered) batch as full items. */
  def appendAll(b: B): Unit

  /** Delete `m` uniformly random full items and insert `m` uniformly random
    * items drawn from the (registered) batch — the saturated-case swap
    * (Algorithm 2 line 17).
    */
  def replaceRandom(m: Long, b: B): Unit

  /** All stored full items (collected to the driver; tests and sample export). */
  def items: IndexedSeq[Item[P]]
}

/** In-memory reference backend; lets the statistical suites exercise the
  * [[DRTBS]] driver logic at high repetition counts without Spark.
  */
final class LocalReservoirOps[P](rng: Rng) extends ReservoirOps[P, IndexedSeq[Item[P]]] {
  private val buf = ArrayBuffer.empty[Item[P]]

  override def count: Long = buf.size
  override def batchSize(b: IndexedSeq[Item[P]]): Long = b.size

  override def deleteRandom(k: Long): Unit = {
    val kk = math.min(k, buf.size.toLong).toInt
    LatentSample.removeAt(buf, rng.sampleIndexArray(buf.size, kk))
  }

  override def extractRandomOne(): Item[P] = {
    require(buf.nonEmpty, "extract from empty reservoir")
    buf.remove(rng.nextInt(buf.size))
  }

  override def insertOne(item: Item[P]): Unit = buf += item

  override def appendAll(b: IndexedSeq[Item[P]]): Unit = buf ++= b

  override def replaceRandom(m: Long, b: IndexedSeq[Item[P]]): Unit =
    LatentSample.replaceRandom(buf, b, m.toInt, rng)

  override def items: IndexedSeq[Item[P]] = Sampler.snapshot(buf)
}
