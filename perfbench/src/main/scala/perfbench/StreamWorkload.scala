package perfbench

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQuery
import repro.core.{Item, RTBS, Rng}
import repro.dist.{CoPartReservoirOps, DRTBS, ReservoirOps, StreamingTBS}
import repro.dist.StreamingTBS.Event
import scala.collection.mutable.ArrayBuffer

/** `stream-dist-cp`: Structured Streaming (`MemoryStream` → `foreachBatch` →
  * `StreamingTBS.toItemRdd` → `DRTBS` over `CoPartReservoirOps` with
  * distributed decisions), closed loop: the next micro-batch is added only
  * after `processAllAvailable` returns.
  *
  * The first micro-batch holds `Arrivals.first(n)` items; the sizes after it
  * (`Arrivals`) make W swing around n, so every Algorithm-2/3 branch fires. Every `ExportEvery`-th batch the sample is
  * exported (`DRTBS.sample` → `StreamingTBS.sampleToDf` → count), standing in
  * for a retrain. A step is one micro-batch, from `addData` until
  * `processAllAvailable` returns. Each replay starts an identically seeded
  * stream just before it runs and stops it after, so no idle query polls
  * beside the measured one; every replay runs the same `Steps` micro-batches
  * (one `Arrivals` cycle), so lineage reaches the same depth in every replay
  * and on every run.
  */
final class StreamWorkload(ctx: Ctx, spark: SparkSession) {
  import StreamWorkload._

  private type P = (Double, Double)
  private type Batch = RDD[Item[P]]

  private val sc = spark.sparkContext
  private val checks = new Checks

  private val notes = ArrayBuffer.empty[String]

  /** Batch 0 is the first micro-batch; batches 1..Steps are timed. */
  private val sizes = Arrivals.first(N) +: Arrivals.sizes(new Rng(ctx.subSeed(1)), Steps, N, Lambda)
  /** Ids of batch t are idStart(t) until idStart(t + 1). */
  private val idStart = sizes.scanLeft(0L)(_ + _)
  private val batches = new Array[Vector[Event]](Steps + 1)

  private def build(t: Int): Unit = {
    val rng = new Rng(ctx.subSeed(1000 + t))
    batches(t) = Vector.tabulate(sizes(t))(i => Event(idStart(t) + i, t, rng.uniform(), rng.uniform()))
  }

  private final class Stream(val drtbs: DRTBS[P, Batch], val timedOps: Option[TimedOps[P, Batch]]) {
    @volatile var batch = 0
    @volatile var bodyNs = 0L
    @volatile var processNs = 0L
    @volatile var calls = 0
    var expectedW = 0.0
    var source: MemoryStream[Event] = _
    var query: StreamingQuery = _
  }

  /** Set-up of one stream: build every input batch, start the query, run the
    * first micro-batch and the first export.
    */
  private def open(traced: Boolean): Stream = {
    (0 to Steps).foreach(build)
    val raw = new CoPartReservoirOps[P](sc, Parts, distributedDecisions = true, ctx.subSeed(10))
    val timedOps = if (traced) Some(new TimedOps(raw)) else None
    val ops: ReservoirOps[P, Batch] = timedOps.getOrElse(raw)
    val st = new Stream(new DRTBS[P, Batch](N, Lambda, ops, new Rng(ctx.subSeed(20))), timedOps)
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    import spark.implicits._
    st.source = MemoryStream[Event]
    st.query = st.source.toDS().writeStream.outputMode("append")
      .foreachBatch { (df: Dataset[Event], _: Long) =>
        SparkTrace.tag(df.sparkSession.sparkContext, Impl, st.batch)
        val t0 = System.nanoTime()
        val batch = StreamingTBS.toItemRdd(df.toDF(), Parts)
        val t1 = System.nanoTime()
        st.drtbs.processBatch(batch)
        val t2 = System.nanoTime()
        st.bodyNs += t2 - t0
        st.processNs += t2 - t1
        st.calls += 1
        ()
      }
      .start()
    feed(st, 0)
    exportSample(st, 0)
    st
  }

  /** Add batch t, wait for it, and check the weights against the closed form
    * W_t = e^{−λ}W_{t−1} + |B_t|, C_t = min(n, W_t).
    */
  private def feed(st: Stream, t: Int): Unit = {
    st.batch = t
    val callsBefore = st.calls
    st.source.addData(batches(t))
    st.query.processAllAvailable()
    val calls = st.calls - callsBefore
    val size = batches(t).size
    checks(calls == 1 || (size == 0 && calls == 0), s"batch $t of $size items ran $calls micro-batches")
    (0 until calls).foreach(k => st.expectedW = st.expectedW * math.exp(-Lambda) + (if (k == 0) size else 0))
    val (w, c) = (st.drtbs.totalWeight, st.drtbs.sampleWeight)
    val tol = 1e-6 * math.max(1.0, st.expectedW)
    checks(math.abs(w - st.expectedW) <= tol, s"batch $t: W=$w, closed form ${st.expectedW}")
    checks(math.abs(c - math.min(N.toDouble, st.expectedW)) <= tol, s"batch $t: C=$c, W=$w")
  }

  /** Export the sample as a DataFrame; return (collect ms, DataFrame ms). */
  private def exportSample(st: Stream, t: Int): (Double, Double) = {
    SparkTrace.tag(sc, Impl + ".export", t)
    val (sample, collectMs) = Clock.timed(st.drtbs.sample)
    val (rows, dfMs) = Clock.timed(StreamingTBS.sampleToDf(spark, sample).count())
    SampleChecks(checks, s"batch $t", sample, st.drtbs.sampleWeight)(i =>
      i.batch >= 0 && i.batch <= t && i.id >= idStart(i.batch) && i.id < idStart(i.batch + 1))
    checks(rows == sample.size, s"batch $t: DataFrame has $rows rows, sample ${sample.size}")
    (collectMs, dfMs)
  }

  private def measure(st: Stream, quota: Quota, traced: Boolean): Phase = {
    val ledger = new FailureLedger(quota.steps)
    val steps = ArrayBuffer.empty[Step]
    val collects = ArrayBuffer.empty[Double]
    val dfs = ArrayBuffer.empty[Double]
    var engineNs = 0L
    st.timedOps.foreach(_.reset())
    val (bodyNs0, processNs0) = (st.bodyNs, st.processNs)

    def loop(): Unit = {
      var t = 1
      while (quota.allows(t - 1) && !ledger.broken) {
        val i = t
        ledger.step(i) {
          val bodyBefore = st.bodyNs
          val c0 = Cpu.read()
          val t0 = System.nanoTime()
          feed(st, i)
          val ns = System.nanoTime() - t0
          steps += Step(Impl, ns / 1e6, Cpu.ms(c0), batches(i).size)
          engineNs += ns - (st.bodyNs - bodyBefore)
          if (i % ExportEvery == 0) {
            val (c, d) = exportSample(st, i)
            collects += c; dfs += d
          }
        }
        t += 1
      }
    }

    val layers =
      if (!traced) { loop(); Map.empty[String, Double] }
      else {
        val jvm = new JvmCounters
        SparkTrace.during(sc) { trace =>
          loop()
          val n = steps.size
          val series = trace.lineageSeries(sc, Impl)
          notes += s"dist_cp lineage (largest stage, RDDs) by batch: " + series.map { case (b, l) => s"$b:$l" }.mkString(" ")
          val processNs = st.processNs - processNs0
          notes += f"StreamingTBS.toItemRdd: ${Layers.perStep((st.bodyNs - bodyNs0 - processNs) / 1e6, n)}%.1f ms per batch"
          trace.layers(sc, Impl, n) ++
            st.timedOps.get.layers(Impl, processNs, n) ++
            Map("stream.engine_ms" -> Layers.perStep(engineNs / 1e6, n),
              "stream.export_collect_ms" -> Stats.mean(collects.toSeq),
              "stream.export_df_ms" -> Stats.mean(dfs.toSeq),
              "baseline.rtbs_batch_ms" -> baseline(n)) ++
            Layers.jvm(jvm, n) ++
            RngProbe(ctx.subSeed(30), N, B, B, Parts, Lambda)
        }
      }
    val exports = collects.zip(dfs).map { case (c, d) => c + d }.toSeq
    val ms = steps.map(_.ms).toSeq
    Phase(steps.toIndexedSeq, Map.empty, layers, ledger.attempted, ledger.failed,
      ledger.note ++ quota.note(steps.size, ledger) :+ (f"stream: ${steps.size} micro-batches, p50 ${Stats.quantileOr0(ms, 0.5)}%.1f ms, " +
        f"p90 ${Stats.quantileOr0(ms, 0.9)}%.1f ms; ${exports.size} exports, p50 ${Stats.quantileOr0(exports, 0.5)}%.1f ms; " +
        "ms by batch: " + ms.map(x => f"$x%.0f").mkString(" ")))
  }

  /** Single-node R-TBS on the same batches: the cost of the sampling itself,
    * without Spark (median ms per batch over the first `steps` batches).
    */
  private def baseline(steps: Int): Double = {
    val items = batches.take(steps + 1).map(_.map(e => Item(e.id, e.batch, (e.x, e.y))))
    val rtbs = new RTBS[P](N, Lambda, ctx.subSeed(40))
    rtbs.processBatch(items.head)
    Stats.quantileOr0(items.tail.map(b => Clock.timed(rtbs.processBatch(b))._2), 0.5)
  }

  /** A first set-up with a cold JIT, not timed; then one timed set-up before
    * each replay. `setup_s` is the median of the timed ones.
    */
  def run(): Outcome = {
    open(traced = false).query.stop()
    val setups = ArrayBuffer.empty[(Double, Double)]
    val out = Phases.run(ctx, Setup.seconds(setups.toSeq), checks, Replays, Steps, { (replay, quota, traced) =>
      val (st, wallMs, cpuMs) = Clock.timedCpu(open(traced))
      setups += wallMs -> cpuMs
      try measure(st, quota, traced) finally st.query.stop()
    })
    out.copy(notes = out.notes ++ notes.toSeq)
  }
}

object StreamWorkload {
  val N = 20000
  val Lambda = 0.07
  val B: Int = math.round(N * (1 - math.exp(-Lambda))).toInt
  val Parts = 4
  val ExportEvery = 5
  /** Micro-batches of a replay (one `Arrivals` cycle), and how many replays
    * a run makes.
    */
  val Steps: Int = Arrivals.Cycle
  val Replays = 3
  val Impl = "dist_cp"
}
