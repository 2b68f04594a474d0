package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import repro.core.{Item, Sampler}
import repro.dist.ReservoirOps
import scala.collection.mutable

/** Delegating `ReservoirOps` that times every call into the backend. Handed to
  * `DRTBS` in traced runs; the driver's own time is `processBatch` minus the
  * time spent in here.
  */
final class TimedOps[P, B](inner: ReservoirOps[P, B]) extends ReservoirOps[P, B] {
  val ns: Array[Long] = new Array[Long](Catalog.ops.size)
  val calls: Array[Long] = new Array[Long](Catalog.ops.size)

  private def timed[A](op: Int)(body: => A): A = {
    val t0 = System.nanoTime()
    try body
    finally { ns(op) += System.nanoTime() - t0; calls(op) += 1 }
  }

  def totalNs: Long = ns.sum

  /** Forget what set-up did, so a replay counts only its own calls. */
  def reset(): Unit = {
    java.util.Arrays.fill(ns, 0L)
    java.util.Arrays.fill(calls, 0L)
  }

  override def count: Long = inner.count
  override def batchSize(b: B): Long = timed(0)(inner.batchSize(b))
  override def appendAll(b: B): Unit = timed(1)(inner.appendAll(b))
  override def replaceRandom(m: Long, b: B): Unit = timed(2)(inner.replaceRandom(m, b))
  override def deleteRandom(k: Long): Unit = timed(3)(inner.deleteRandom(k))
  override def extractRandomOne(): Item[P] = timed(4)(inner.extractRandomOne())
  override def insertOne(item: Item[P]): Unit = timed(5)(inner.insertOne(item))
  override def items: IndexedSeq[Item[P]] = inner.items

  /** Per-layer values for `impl`, per batch, with `processNs` the total time
    * spent in `DRTBS.processBatch` over `batches` batches.
    */
  def layers(impl: String, processNs: Long, batches: Int): Map[String, Double] = {
    val perOp = Catalog.ops.indices.flatMap { i =>
      val o = Catalog.ops(i)
      Seq(s"$impl.ops.$o.ms" -> Layers.perStep(ns(i) / 1e6, batches)) ++
        (if (o == "batch_size") Nil else Seq(s"$impl.ops.$o.calls" -> Layers.perStep(calls(i).toDouble, batches)))
    }
    perOp.toMap + (s"$impl.drtbs.driver_ms" -> Layers.perStep((processNs - totalNs) / 1e6, batches))
  }
}

/** Time spent in samplers and in the loss function of the quality harness. */
final class QualityTimes {
  var processNs = 0L
  var sampleNs = 0L
  var lossNs = 0L
  var steps = 0L
}

/** Delegating `Sampler` that times `processBatch` and `sample`. */
final class TimedSampler[P](inner: Sampler[P], times: QualityTimes) extends Sampler[P] {
  override def processBatch(batch: IndexedSeq[Item[P]]): Unit = {
    val t0 = System.nanoTime()
    inner.processBatch(batch)
    times.processNs += System.nanoTime() - t0
  }
  override def sample: IndexedSeq[Item[P]] = {
    val t0 = System.nanoTime()
    val s = inner.sample
    times.sampleNs += System.nanoTime() - t0
    s
  }
  override def name: String = inner.name
}

/** Spark-scheduler counters per implementation. Jobs are attributed through
  * the local properties `SparkTrace.Tag` (implementation) and
  * `SparkTrace.Batch` (batch index) set by the thread that submits them.
  */
final class SparkTrace extends SparkListener {
  import SparkTrace._

  final class Agg {
    var jobs, stages, tasks, shuffleWrite, shuffleRead, result = 0L
    var deserMs, runMs = 0.0
    val lineageByBatch: mutable.Map[Int, Int] = mutable.Map.empty[Int, Int].withDefaultValue(0)
    def lineageMax: Int = if (lineageByBatch.isEmpty) 0 else lineageByBatch.values.max
  }

  private val aggs = mutable.Map.empty[String, Agg]
  private val stageOwner = mutable.Map.empty[Int, (String, Int)]

  private def agg(tag: String): Agg = aggs.getOrElseUpdate(tag, new Agg)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(Tag))).foreach { tag =>
      val batch = Option(e.properties.getProperty(Batch)).map(_.toInt).getOrElse(-1)
      agg(tag).jobs += 1
      e.stageInfos.foreach(s => stageOwner(s.stageId) = (tag, batch))
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageOwner.get(e.stageInfo.stageId).foreach { case (tag, batch) =>
      val a = agg(tag)
      a.stages += 1
      a.lineageByBatch(batch) = math.max(a.lineageByBatch(batch), e.stageInfo.rddInfos.size)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageOwner.get(e.stageId).foreach { case (tag, _) =>
      val a = agg(tag)
      a.tasks += 1
      Option(e.taskMetrics).foreach { m =>
        a.deserMs += m.executorDeserializeTime
        a.runMs += m.executorRunTime
        a.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
        a.shuffleRead += m.shuffleReadMetrics.totalBytesRead
        a.result += m.resultSize
      }
    }
  }

  /** Per-batch layer values for `impl` over `batches` batches. */
  def layers(sc: SparkContext, impl: String, batches: Int): Map[String, Double] = {
    org.apache.spark.PerfbenchBus.drain(sc)
    synchronized {
      val a = agg(impl)
      def per(x: Double) = Layers.perStep(x, batches)
      Map(
        s"$impl.spark.jobs" -> per(a.jobs.toDouble), s"$impl.spark.stages" -> per(a.stages.toDouble),
        s"$impl.spark.tasks" -> per(a.tasks.toDouble), s"$impl.spark.lineage_rdds_max" -> a.lineageMax.toDouble,
        s"$impl.spark.task_deser_ms" -> per(a.deserMs), s"$impl.spark.task_run_ms" -> per(a.runMs),
        s"$impl.spark.shuffle_write_bytes" -> per(a.shuffleWrite.toDouble),
        s"$impl.spark.shuffle_read_bytes" -> per(a.shuffleRead.toDouble),
        s"$impl.spark.result_bytes" -> per(a.result.toDouble),
      )
    }
  }

  /** Largest stage lineage of each batch, in batch order. */
  def lineageSeries(sc: SparkContext, impl: String): Seq[(Int, Int)] = {
    org.apache.spark.PerfbenchBus.drain(sc)
    synchronized { agg(impl).lineageByBatch.toSeq.filter(_._1 >= 0).sorted }
  }
}

object SparkTrace {
  val Tag = "perfbench.impl"
  val Batch = "perfbench.batch"

  def tag(sc: SparkContext, impl: String, batch: Int): Unit = {
    sc.setLocalProperty(Tag, impl)
    sc.setLocalProperty(Batch, batch.toString)
  }

  /** Register a fresh listener for the duration of `body`. */
  def during[A](sc: SparkContext)(body: SparkTrace => A): A = {
    val t = new SparkTrace
    sc.addSparkListener(t)
    try body(t)
    finally {
      org.apache.spark.PerfbenchBus.drain(sc)
      sc.removeSparkListener(t)
    }
  }
}
