package perfbench

import repro.core.{Item, Rng}
import repro.data.StreamGen
import repro.data.StreamGen.{ConstantBatch, GaussianMixture, Point}
import repro.exp.{Experiments, QualityHarness}
import repro.exp.tables.Table1Knn
import repro.ml.Knn
import scala.collection.mutable.ArrayBuffer

/** `quality-knn`: the Table 1 protocol through `QualityHarness.evaluate`.
  * Samplers R-TBS (λ ∈ {0.05, 0.07, 0.1}), SW and Unif; the four Table-1
  * patterns; n = 1000, b = 100, k = 7, 100 warm-up batches, one Monte-Carlo
  * run per cell. A sweep is all 20 cells with one seed; each sweep has its own
  * seed drawn from the workload seed, and its batches are built before timing
  * (the same streams `Experiments.knn` would draw for that seed).
  *
  * `ml.Knn` dominates; the samplers are a small share at n = 1000. A step is
  * one cell: one `evaluate` call for one scheme and pattern. Each set-up
  * repetition builds its share of the inputs and runs one sweep of its own,
  * the first model trained; each replay then runs the same `Sweeps` sweeps.
  */
final class QualityWorkload(ctx: Ctx) {
  import QualityWorkload._

  private val checks = new Checks
  private val schemes = Experiments.knnSchemes(N)

  /** Batches of one (sweep seed, pattern), keyed by t (≤ 0 is warm-up). */
  private type Stream = Map[Int, IndexedSeq[Item[Point]]]

  /** Per sweep: its seed and one stream per pattern. Sweep k < Sets is the
    * one set-up repetition k runs; the sweeps every replay runs follow.
    */
  private val sweeps = new Array[(Long, Seq[Stream])](Setup.Sets + Sweeps)

  private def build(i: Int): Unit = {
    val seed = ctx.subSeed(1000 + i)
    sweeps(i) = (seed, Table1Knn.patterns.map { case (pattern, horizon) => stream(seed, pattern, horizon) })
  }

  /** The batches `Experiments.knn` draws for run 1 of `evaluate(seed)`. */
  private def stream(seed: Long, pattern: StreamGen.Pattern, horizon: Int): Stream = {
    val runSeed = seed + 1000003L
    val mix = new GaussianMixture(runSeed ^ 0xC0FFEE)
    val rng = new Rng(runSeed ^ 0x5DEECE66DL)
    var idBase = 0L
    (-Warmup + 1 to horizon).map { t =>
      val p = if (t <= 0) Experiments.neverAbnormal else pattern
      val b = StreamGen.knnBatch(mix, p, math.max(t, 1), B, rng, idBase)
      idBase += b.size
      t -> b
    }.toMap
  }

  /** One cell's result. */
  private final case class Cell(scheme: String, ms: Double, cpuMs: Double, items: Long, missPct: Double, esPct: Double)

  /** Every cell of sweep `i`; `times` collects layer times when traced. */
  private def sweep(i: Int, times: Option[QualityTimes]): Seq[Cell] = {
    val (seed, streams) = sweeps(i)
    for ((name, mk) <- schemes; ((pattern, horizon), pre) <- Table1Knn.patterns.zip(streams)) yield {
      val mkSampler = times.fold(mk)(tm => (s: Long) => new TimedSampler(mk(s), tm))
      val loss: (IndexedSeq[Point], IndexedSeq[Point]) => Double = times match {
        case None => (s, b) => Knn.missRate(s, b, K)
        case Some(tm) => (s, b) => {
          val t0 = System.nanoTime()
          val l = Knn.missRate(s, b, K)
          tm.lossNs += System.nanoTime() - t0
          tm.steps += 1
          l
        }
      }
      val (res, ms, cpuMs) = Clock.timedCpu(QualityHarness.evaluate[Point](
        mkSampler, (_: Long) => (t: Int, _: Int, _: Rng, _: Long) => pre(t), ConstantBatch(B), loss,
        Experiments.knnConfig(horizon), runs = 1, seed))
      Cell(name, ms, cpuMs, (Warmup + horizon).toLong * B, 100 * res.accuracy, 100 * res.es)
    }
  }

  private def measure(quota: Quota, traced: Boolean): Phase = {
    val ledger = new FailureLedger(quota.steps)
    val sweepS = ArrayBuffer.empty[Double]
    val results = ArrayBuffer.empty[SweepResult]
    val cells = ArrayBuffer.empty[Cell]
    val times = if (traced) Some(new QualityTimes) else None
    val jvm = if (traced) Some(new JvmCounters) else None
    var i = 0
    // At least `Scored` sweeps run, so the quality checks always see as many.
    while (!ledger.broken && (i < Scored || quota.allows(i))) {
      i += 1
      ledger.step(i) {
        val (cs, ms) = Clock.timed(sweep(Setup.Sets + i - 1, times))
        cells ++= cs
        sweepS += ms / 1000.0
        results += SweepResult(cs.groupMap(_.scheme)(c => (c.missPct, c.esPct)))
      }
    }
    val stepMs = cells.map(_.ms).toSeq

    val scored = results.take(Scored).toSeq
    def avg(scheme: String): (Double, Double) = {
      val xs = scored.map(_.avg(scheme))
      (Stats.mean(xs.map(_._1)), Stats.mean(xs.map(_._2)))
    }
    val table = schemes.map(_._1).map(s => s -> avg(s))
    val (miss, es) = avg(Rtbs)
    if (scored.nonEmpty) {
      val (swMiss, swEs) = avg("SW")
      val unifMiss = avg("Unif")._1
      checks(es < swEs, f"R-TBS ES $es%.2f is not below SW ES $swEs%.2f")
      checks(table.filterNot(_._1 == "Unif").forall(_._2._1 < unifMiss), f"Unif Miss $unifMiss%.2f is not the worst")
      checks(math.abs(miss - RefMiss) <= TolMiss, f"R-TBS Miss $miss%.2f vs reference $RefMiss ± $TolMiss")
      checks(math.abs(es - RefEs) <= TolEs, f"R-TBS ES $es%.2f vs reference $RefEs ± $TolEs")
      checks(swMiss > 0, "SW Miss is 0")
    }

    val layers = times.zip(jvm).map { case (tm, c) =>
      val steps = tm.steps.toInt
      Map(
        "knn.predict_ms" -> Layers.perStep(tm.lossNs / 1e6, steps),
        "quality.sampler_process_ms" -> Layers.perStep(tm.processNs / 1e6, steps),
        "quality.sampler_sample_ms" -> Layers.perStep(tm.sampleNs / 1e6, steps),
        "quality.harness_self_ms" ->
          Layers.perStep(stepMs.sum - (tm.lossNs + tm.processNs + tm.sampleNs) / 1e6, steps),
      ) ++ Layers.jvm(c, stepMs.size) ++ RngProbe(ctx.subSeed(30), N, B, B, 4, 0.07)
    }.getOrElse(Map.empty)
    val extras = Map("knn.miss_pct" -> miss, "knn.es_pct" -> es,
      "quality.sweep_s" -> Stats.quantileOr0(sweepS.toSeq, 0.5))
    Phase(cells.map(c => Step("knn", c.ms, c.cpuMs, c.items)).toIndexedSeq, extras, layers, ledger.attempted, ledger.failed,
      ledger.note ++ quota.note(results.size, ledger) ++ Seq("median cell ms: " + cells.groupMap(_.scheme)(_.ms).toSeq.sortBy(_._1)
        .map { case (k, v) => f"$k ${Stats.median(v.toSeq)}%.1f" }.mkString(", "),
        "s by sweep: " + sweepS.map(x => f"$x%.2f").mkString(" "),
        s"quality: ${results.size} sweeps, pattern-averaged Miss%/ES% over the first ${scored.size}: " +
        table.map { case (s, (m, e)) => f"$s $m%.2f/$e%.2f" }.mkString(", ")))
  }

  def run(): Outcome = {
    val (_, setupS) = Setup.repeat(Setup.Sets) { unit =>
      build(unit)
      Setup.chunk(unit, Setup.Sets, Sweeps).foreach(i => build(Setup.Sets + i))
      sweep(unit, None)
    }
    Phases.run(ctx, setupS, checks, Replays, Sweeps, (_, quota, traced) => measure(quota, traced))
  }
}

object QualityWorkload {
  /** Pattern-averaged (Miss%, ES%) per scheme for each sweep of a replay. */
  final case class SweepResult(cells: Map[String, Seq[(Double, Double)]]) {
    def avg(scheme: String): (Double, Double) = {
      val c = cells(scheme)
      (Stats.mean(c.map(_._1)), Stats.mean(c.map(_._2)))
    }
  }

  val N = 1000
  val B = 100
  val K = 7
  val Warmup = 100
  val Rtbs = "R-TBS λ=0.07"
  /** Sweeps of a replay, how many replays a run makes, and how many of a
    * replay's first sweeps are scored.
    */
  val Sweeps = 3
  val Replays = 5
  val Scored = 3
  /** Pattern-averaged R-TBS λ=0.07 Miss% and ES% of the seed code: the 30-run
    * Table 1 of EXPERIMENTS.md. Over 15 seeds the benchmark's three-sweep
    * averages had mean 15.2 (sd 1.0) and 20.8 (sd 1.4); the tolerances sit
    * more than three sd away from those on both sides.
    */
  val RefMiss = 15.8
  val RefEs = 22.1
  val TolMiss = 4.0
  val TolEs = 6.0
}
