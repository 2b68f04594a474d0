package perfbench

import repro.core.{Item, RTBS, Rng, TTBS}
import scala.collection.mutable.ArrayBuffer

/** `local-large-n`: single-node R-TBS and T-TBS, no Spark, fed identical
  * batches with n = 1e5, λ = 0.07 and sizes from `Arrivals` (each drawn
  * from Uniform(0, 2b) at b = n(1−e^{−λ}), steered so W swings around n and
  * every Algorithm-2 branch fires, in the same numbers on every seed). This is the
  * workload where `LatentSample`'s deletes and `Rng`'s O(n) draws dominate.
  *
  * A step is one R-TBS batch: `processBatch` followed by `sample` (the sample
  * a retrain would read). T-TBS then ingests the same batch. Each set-up
  * repetition brings an identically seeded pair of samplers through the first
  * batch and the first `Arrivals` cycle; each pair then replays the same
  * `Steps` batches, whole cycles, from there.
  */
final class LocalWorkload(ctx: Ctx) {
  import LocalWorkload._

  private val checks = new Checks

  /** Batch 0 is the first `Arrivals` batch; batches 1..SetupBatches run in set-up,
    * the rest are timed.
    */
  private val sizes = Arrivals.first(N) +: Arrivals.sizes(new Rng(ctx.subSeed(1)), SetupBatches + Steps, N, Lambda)
  private val idStart = sizes.scanLeft(0L)(_ + _)
  private val batches = new Array[Vector[Item[Int]]](sizes.size)

  /** Set-up repetition `unit`: the first builds the batches set-up runs, and
    * each builds its share of the timed ones.
    */
  private final class Samplers(unit: Int) {
    val timed = Setup.chunk(unit, Replays, Steps).map(_ + SetupBatches + 1)
    (if (unit == 0) (0 to SetupBatches) ++ timed else timed).foreach { t =>
      batches(t) = Vector.tabulate(sizes(t))(i => Item(idStart(t) + i, t, i & 63))
    }
    val rtbs = new RTBS[Int](N, Lambda, ctx.subSeed(10))
    val ttbs = new TTBS[Int](N, Lambda, B, ctx.subSeed(20))
    rtbs.processBatch(batches(0))
    ttbs.processBatch(batches(0))
    var expectedW: Double = sizes(0)
    (1 to SetupBatches).foreach(step(this, _))
  }

  /** One step on batch t, checked: (R-TBS processBatch ms, sample ms, CPU ms
    * of both, T-TBS ms, branch).
    */
  private def step(s: Samplers, t: Int): (Double, Double, Double, Double, String) = {
    val b = batches(t)
    val w0 = s.rtbs.totalWeight
    val c0 = Cpu.read()
    val (_, processMs) = Clock.timed(s.rtbs.processBatch(b))
    val (sample, sampleMs) = Clock.timed(s.rtbs.sample)
    val cpuMs = Cpu.ms(c0)
    val w1 = s.rtbs.totalWeight
    val ttbsMs = Clock.timed(s.ttbs.processBatch(b))._2
    s.expectedW = s.expectedW * math.exp(-Lambda) + b.size
    checks(sample.size <= N, s"batch $t: R-TBS sample of ${sample.size} > n")
    checks(math.abs(w1 - s.expectedW) <= 1e-6 * s.expectedW, s"batch $t: W=$w1, closed form ${s.expectedW}")
    (processMs, sampleMs, cpuMs, ttbsMs, Branch.of(w0, w1, N))
  }

  private def measure(s: Samplers, quota: Quota, traced: Boolean): Phase = {
    val ledger = new FailureLedger(quota.steps)
    val steps = ArrayBuffer.empty[Step]
    val sampleMs, ttbsMs = ArrayBuffer.empty[Double]
    val branch = ArrayBuffer.empty[(String, Double)]
    val jvm = if (traced) Some(new JvmCounters) else None
    var i = 0
    while (quota.allows(i) && !ledger.broken) {
      i += 1
      val t = SetupBatches + i
      ledger.step(i) {
        val (processMs, ms, cpuMs, ttbs, br) = step(s, t)
        steps += Step("rtbs", processMs + ms, cpuMs, batches(t).size)
        sampleMs += ms
        ttbsMs += ttbs
        branch += (br -> processMs)
      }
    }
    val n = steps.size
    val layers = jvm.map { c =>
      val byBranch = branch.groupMap(_._1)(_._2)
      Catalog.branches.flatMap { br =>
        val ms = byBranch.getOrElse(br, ArrayBuffer.empty[Double])
        Seq(s"rtbs.branch.$br.count" -> ms.size.toDouble, s"rtbs.branch.$br.ms" -> Stats.mean(ms.toSeq))
      }.toMap ++ Map("rtbs.sample_ms" -> Stats.mean(sampleMs.toSeq)) ++
        Layers.jvm(c, n) ++ RngProbe(ctx.subSeed(30), N, BInt, BInt, 4, Lambda)
    }.getOrElse(Map.empty)
    val counts = branch.groupMapReduce(_._1)(_ => 1)(_ + _)
    val ms = steps.map(_.ms).toSeq
    Phase(steps.toIndexedSeq, Map("ttbs.batch_ms.p50" -> Stats.quantileOr0(ttbsMs.toSeq, 0.5)), layers,
      ledger.attempted, ledger.failed,
      ledger.note ++ quota.note(n, ledger) :+ (f"local: $n batches, R-TBS p50 ${Stats.quantileOr0(ms, 0.5)}%.1f ms " +
        f"p90 ${Stats.quantileOr0(ms, 0.9)}%.1f ms, sample p50 ${Stats.quantileOr0(sampleMs.toSeq, 0.5)}%.2f ms, T-TBS p50 ${Stats.quantileOr0(ttbsMs.toSeq, 0.5)}%.1f ms, " +
        s"branches ${Catalog.branches.map(b => s"$b=${counts.getOrElse(b, 0)}").mkString(" ")}"))
  }

  def run(): Outcome = {
    val (sets, setupS) = Setup.repeat(Replays)(unit => new Samplers(unit))
    Phases.run(ctx, setupS, checks, Replays, Steps, (replay, quota, traced) => measure(sets(replay), quota, traced))
  }
}

object LocalWorkload {
  val N = 100000
  val Lambda = 0.07
  /** Mean batch size b = n(1−e^{−λ}); T-TBS then accepts every arrival (q = 1). */
  val B: Double = N * (1 - math.exp(-Lambda))
  val BInt: Int = math.round(B).toInt
  /** Batches after the first one that set-up runs, and that each replay
    * runs (whole cycles); how many replays a run makes, each on a pair of
    * samplers of its own set-up.
    */
  val SetupCycles = 1
  val SetupBatches: Int = SetupCycles * Arrivals.Cycle
  val Steps: Int = 2 * Arrivals.Cycle
  val Replays = 5
}

/** Which Algorithm-2 branch a batch took, read from W before and after it. */
object Branch {
  def of(w0: Double, w1: Double, n: Int): String =
    if (w0 >= n) { if (w1 >= n) "saturated" else "undershoot" }
    else if (w1 > n) "overshoot"
    else "unsaturated"
}
