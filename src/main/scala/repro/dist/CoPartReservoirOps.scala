package repro.dist

import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import repro.core.{Item, LatentSample, Rng}
import scala.collection.mutable.ArrayBuffer
import scala.reflect.ClassTag

/** Co-partitioned reservoir (§5.2, Fig 5(b)): one mutable vector of items per
  * partition, stored in an RDD via the in-place updating technique of [32]
  * (App. E.2.1) — successive reservoir RDDs share the same vector objects, so
  * inserts/deletes never shuffle reservoir data and are co-located with the
  * incoming batch partitions.
  *
  * Decision strategies (§5.3):
  *   - `distributedDecisions = false` ("Cent-CP"): the driver generates the
  *     victim/insert slot numbers and ships per-partition position lists;
  *   - `distributedDecisions = true` ("Dist-CP"): the driver only draws
  *     per-partition counts from multivariate hypergeometric distributions
  *     and each worker picks positions locally from its own RNG sub-stream.
  *
  * The incoming batch RDD must have exactly `numPartitions` partitions (the
  * co-partitioning assumption; callers repartition otherwise).
  */
final class CoPartReservoirOps[P: ClassTag](
    sc: SparkContext,
    val numPartitions: Int,
    distributedDecisions: Boolean,
    seed: Long,
) extends ReservoirOps[P, RDD[Item[P]]] {

  private val rng = new Rng(seed)
  private var version: Long = 0L
  private var sizes: Array[Long] = Array.fill(numPartitions)(0L)

  private var reservoir: RDD[ArrayBuffer[Item[P]]] = {
    val r = sc
      .parallelize(Seq.fill(numPartitions)(()), numPartitions)
      .map(_ => ArrayBuffer.empty[Item[P]])
      .persist(StorageLevel.MEMORY_ONLY)
    r.count()
    r
  }

  private var pendingBatch: Option[(RDD[Item[P]], Array[Long])] = None

  override def count: Long = sizes.sum

  override def batchSize(b: RDD[Item[P]]): Long = {
    require(b.getNumPartitions == numPartitions,
      s"batch has ${b.getNumPartitions} partitions, reservoir has $numPartitions — repartition first")
    b.persist(StorageLevel.MEMORY_ONLY)
    // §5.1: aggregate local batch sizes to obtain |B_t| (and the partition
    // layout needed for co-located decisions).
    val ps = b.mapPartitionsWithIndex((pid, it) => Iterator((pid, it.size.toLong))).collect()
    val arr = Array.fill(numPartitions)(0L)
    ps.foreach { case (pid, s) => arr(pid) = s }
    pendingBatch = Some((b, arr))
    arr.sum
  }

  /** Replace the reservoir RDD by a transformed copy sharing the same
    * per-partition vectors; materialize, then release the old handle.
    */
  private def update(newRdd: RDD[ArrayBuffer[Item[P]]]): Unit = {
    val old = reservoir
    newRdd.persist(StorageLevel.MEMORY_ONLY)
    newRdd.count()
    old.unpersist(blocking = false)
    reservoir = newRdd
    version += 1
  }

  /** Map global positions over partitions of the given sizes (concatenated)
    * to per-partition local index lists, by binary search on the cumulative
    * sizes.
    */
  private def toLocal(partSizes: Array[Long], positions: Array[Long]): Map[Int, Array[Int]] = {
    val cum = partSizes.scanLeft(0L)(_ + _)
    val local = Array.fill(partSizes.length)(Array.newBuilder[Int])
    positions.foreach { pos =>
      var pid = java.util.Arrays.binarySearch(cum, pos)
      if (pid < 0) pid = -pid - 2 // the last partition starting below pos
      else while (cum(pid + 1) == pos) pid += 1 // skip empty partitions starting at pos
      local(pid) += (pos - cum(pid)).toInt
    }
    local.indices.map(pid => pid -> local(pid).result()).filter(_._2.nonEmpty).toMap
  }

  /** Uniformly random distinct global positions over the current reservoir. */
  private def randomGlobalPositions(k: Int): Array[Long] = {
    val total = count
    require(k <= total, s"cannot pick $k of $total")
    // Rejection sampling over Long positions (k is far below total in the
    // regimes we run; fall back to index enumeration for small reservoirs).
    if (total <= Int.MaxValue) rng.sampleIndexArray(total.toInt, k).map(_.toLong)
    else {
      val seen = scala.collection.mutable.LinkedHashSet.empty[Long]
      while (seen.size < k) seen += (rng.uniform() * total).toLong
      seen.toArray
    }
  }

  override def deleteRandom(k: Long): Unit = {
    if (k <= 0) return
    val kk = math.min(k, count)
    if (distributedDecisions) {
      // Master draws only per-partition counts (multivariate hypergeometric);
      // workers choose their own victims (§5.3 "distributed decisions").
      val counts = rng.multivariateHypergeometric(kk, sizes.toIndexedSeq).toArray
      val seedBase = seed ^ (version * 0x9E3779B97F4A7C15L)
      update(reservoir.mapPartitionsWithIndex { (pid, it) =>
        val buf = it.next()
        val wrng = new Rng(seedBase).split(pid)
        LatentSample.removeAt(buf, wrng.sampleIndexArray(buf.size, counts(pid).toInt))
        Iterator(buf)
      }, countsDelta = counts.map(-_))
    } else {
      // Master generates the victim slot numbers itself ("centralized").
      val plan = toLocal(sizes, randomGlobalPositions(kk.toInt))
      val bplan = sc.broadcast(plan)
      val delta = Array.fill(numPartitions)(0L)
      plan.foreach { case (pid, xs) => delta(pid) = -xs.length.toLong }
      update(reservoir.mapPartitionsWithIndex { (pid, it) =>
        val buf = it.next()
        bplan.value.get(pid).foreach(LatentSample.removeAt(buf, _))
        Iterator(buf)
      }, countsDelta = delta)
    }
  }

  /** Run `update` and adjust the driver-side size ledger. */
  private def update(newRdd: RDD[ArrayBuffer[Item[P]]], countsDelta: Array[Long]): Unit = {
    update(newRdd)
    sizes = sizes.zip(countsDelta).map { case (a, b) => a + b }
  }

  override def extractRandomOne(): Item[P] = {
    require(count > 0, "extract from empty reservoir")
    val plan = toLocal(sizes, randomGlobalPositions(1))
    val (pid, idx) = (plan.head._1, plan.head._2.head)
    val out = reservoir
      .mapPartitionsWithIndex((p, it) => if (p == pid) Iterator(it.next()(idx)) else Iterator.empty)
      .collect()
      .head
    update(reservoir.mapPartitionsWithIndex { (p, it) =>
      val buf = it.next()
      if (p == pid) buf.remove(idx)
      Iterator(buf)
    }, countsDelta = Array.tabulate(numPartitions)(p => if (p == pid) -1L else 0L))
    out
  }

  override def insertOne(item: Item[P]): Unit = {
    val pid = rng.nextInt(numPartitions)
    update(reservoir.mapPartitionsWithIndex { (p, it) =>
      val buf = it.next()
      if (p == pid) buf += item
      Iterator(buf)
    }, countsDelta = Array.tabulate(numPartitions)(p => if (p == pid) 1L else 0L))
  }

  override def appendAll(b: RDD[Item[P]]): Unit = {
    val (batch, bSizes) = pending(b)
    // Co-located insert: every batch item lands in its "local" reservoir
    // partition — no network I/O (Fig 5(b)).
    update(reservoir.zipPartitions(batch) { (rit, bit) =>
      val buf = rit.next()
      bit.foreach(buf += _)
      Iterator(buf)
    }, countsDelta = bSizes)
    done(b)
  }

  override def replaceRandom(m: Long, b: RDD[Item[P]]): Unit = {
    val (batch, bSizes) = pending(b)
    if (distributedDecisions) {
      val delCounts = rng.multivariateHypergeometric(m, sizes.toIndexedSeq).toArray
      val insCounts = rng.multivariateHypergeometric(m, bSizes.toIndexedSeq).toArray
      val seedBase = seed ^ (version * 0xC6BC279692B5C323L)
      update(reservoir.zipPartitions(batch) { (rit, bit) =>
        val buf = rit.next()
        val pid = org.apache.spark.TaskContext.getPartitionId()
        val wrng = new Rng(seedBase).split(pid)
        LatentSample.removeAt(buf, wrng.sampleIndexArray(buf.size, delCounts(pid).toInt))
        LatentSample.appendAt(buf, bit, wrng.sampleIndexArray(bSizes(pid).toInt, insCounts(pid).toInt))
        Iterator(buf)
      }, countsDelta = delCounts.indices.map(i => insCounts(i) - delCounts(i)).toArray)
    } else {
      // Centralized: master picks victim slots and batch positions; the
      // retrieval is a co-located join since the position lists are keyed by
      // batch partition (§5.3, Fig 6(a)).
      val delPlan = toLocal(sizes, randomGlobalPositions(m.toInt))
      val insPlan = toLocal(bSizes, rng.sampleIndexArray(bSizes.sum.toInt, m.toInt).map(_.toLong))
      val bDel = sc.broadcast(delPlan)
      val bIns = sc.broadcast(insPlan)
      val delta = Array.fill(numPartitions)(0L)
      delPlan.foreach { case (pid, xs) => delta(pid) -= xs.length }
      insPlan.foreach { case (pid, xs) => delta(pid) += xs.length }
      update(reservoir.zipPartitions(batch) { (rit, bit) =>
        val buf = rit.next()
        val pid = org.apache.spark.TaskContext.getPartitionId()
        bDel.value.get(pid).foreach(LatentSample.removeAt(buf, _))
        bIns.value.get(pid).foreach(LatentSample.appendAt(buf, bit, _))
        Iterator(buf)
      }, countsDelta = delta)
    }
    done(b)
  }

  private def pending(b: RDD[Item[P]]): (RDD[Item[P]], Array[Long]) =
    pendingBatch match {
      case Some((rdd, ps)) if rdd eq b => (rdd, ps)
      case _ => throw new IllegalStateException("call batchSize(b) before consuming a batch")
    }

  private def done(b: RDD[Item[P]]): Unit = {
    b.unpersist(blocking = false)
    pendingBatch = None
  }

  override def items: IndexedSeq[Item[P]] = reservoir.flatMap(_.iterator).collect().toVector
}
