package repro.dist

import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import repro.core.{Item, LatentSample, Rng}
import scala.collection.mutable.ArrayBuffer
import scala.reflect.ClassTag

/** Distributed T-TBS (§5.1): embarrassingly parallel — every worker
  * independently retains its local reservoir items with probability
  * p = e^{-λ} and accepts its local share of the batch with probability
  * q = n(1−e^{-λ})/b. No driver coordination, no batch-size aggregation, no
  * shuffles: each round is a single co-located pass, which is why D-T-TBS is
  * the fastest implementation in Fig 7.
  *
  * The reservoir reuses the co-partitioned in-place RDD representation.
  */
final class DTTBS[P: ClassTag](
    sc: SparkContext,
    val n: Int,
    val lambda: Double,
    val b: Double,
    val numPartitions: Int,
    seed: Long,
) {
  require(n > 0 && lambda >= 0 && b > 0, "bad parameters")
  private val p = math.exp(-lambda)
  private val q = math.min(1.0, n * (1.0 - p) / b)
  require(n * (1.0 - p) / b <= 1.0 + 1e-12,
    s"mean batch size b=$b too small: need b >= n(1-e^-lambda)=${n * (1 - p)}")

  private var version = 0L
  private var reservoir: RDD[ArrayBuffer[Item[P]]] = {
    val r = sc
      .parallelize(Seq.fill(numPartitions)(()), numPartitions)
      .map(_ => ArrayBuffer.empty[Item[P]])
      .persist(StorageLevel.MEMORY_ONLY)
    r.count(); r
  }

  /** Ingest one batch. The batch RDD must have `numPartitions` partitions. */
  def processBatch(batch: RDD[Item[P]]): Unit = {
    require(batch.getNumPartitions == numPartitions,
      s"batch has ${batch.getNumPartitions} partitions, expected $numPartitions")
    version += 1
    val (pp, qq) = (p, q)
    val seedBase = seed ^ (version * 0xD1B54A32D192ED03L)
    val old = reservoir
    val next = old.zipPartitions(batch) { (rit, bit) =>
      val buf = rit.next()
      val pid = org.apache.spark.TaskContext.getPartitionId()
      val rng = new Rng(seedBase).split(pid)
      // Retain each current item w.p. p (binomial count + uniform victim set).
      LatentSample.retainRandom(buf, rng.binomial(buf.size, pp).toInt, rng)
      // Down-sample the local batch share w.p. q.
      val local = bit.toVector
      val k = rng.binomial(local.size, qq).toInt
      buf ++= rng.sampleWithoutReplacement(local, k)
      Iterator(buf)
    }
    next.persist(StorageLevel.MEMORY_ONLY)
    next.count()
    old.unpersist(blocking = false)
    reservoir = next
  }

  /** Current sample (collected). */
  def sample: IndexedSeq[Item[P]] = reservoir.flatMap(_.iterator).collect().toVector

  /** Current sample size without collecting the items. */
  def sampleSize: Long = reservoir.map(_.size.toLong).collect().sum
}
