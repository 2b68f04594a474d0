package perfbench

import java.lang.management.ManagementFactory
import repro.core.Item
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Command-line settings shared by every workload. */
final case class Ctx(workload: String, seed: Long, seconds: Double, traced: Boolean) {

  /** A sub-seed for one purpose, so inputs and samplers draw independent streams. */
  def subSeed(purpose: Long): Long = {
    var z = seed * 0x9E3779B97F4A7C15L + purpose * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 31)) * 0x94D049BB133111EBL
    z ^ (z >>> 29)
  }
}

/** What a workload hands back to `Main`. */
final case class Outcome(metrics: Map[String, Double], attempted: Long, failed: Long,
                         checks: Checks, notes: Seq[String])

/** Output checks. Each one is counted; failures are kept for the report. */
final class Checks {
  private var run = 0L
  private val failures = ArrayBuffer.empty[String]
  private var failedCount = 0L

  def apply(ok: Boolean, what: => String): Unit = {
    run += 1
    if (!ok) {
      failedCount += 1
      if (failures.size < 20) failures += what
    }
  }

  def passed: Boolean = failedCount == 0
  def summary: String =
    if (passed) s"checks: $run passed" else s"checks: $failedCount of $run FAILED: ${failures.mkString("; ")}"
}

object Stats {

  /** Linear-interpolation quantile (numpy's default). */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.ceil(pos).toInt
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Quantile, or 0 when a broken sampler left no sample at all. */
  def quantileOr0(xs: Seq[Double], q: Double): Double = if (xs.isEmpty) 0.0 else quantile(xs, q)
  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
  def geomean(xs: Seq[Double]): Double = math.exp(mean(xs.map(math.log)))
}

object Clock {
  def ms(fromNs: Long): Double = (System.nanoTime() - fromNs) / 1e6

  /** Run `body` and return its result with the elapsed wall-clock and CPU
    * milliseconds (see `Cpu`).
    */
  def timedCpu[A](body: => A): (A, Double, Double) = {
    val c0 = Cpu.read()
    val t0 = System.nanoTime()
    val a = body
    val wall = ms(t0)
    (a, wall, Cpu.ms(c0))
  }

  /** Run `body` and return its result with the elapsed milliseconds. */
  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, ms(t0))
  }
}

/** CPU time of the JVM: the nanoseconds each of its threads (the program's,
  * Spark's pools, the garbage collector's) ran on a CPU, read from
  * `/proc/self/task/<tid>/schedstat`. On a virtual machine whose host is
  * shared, the hypervisor often runs another guest on one of this guest's
  * CPUs (steal time: 29 % of all CPU time during a Spark run on the 4-vCPU VM
  * this benchmark was tuned on); wall-clock time counts those stretches, and
  * the kernel leaves them out of a thread's run time. The JIT compiler's
  * threads are left out: their work is warm-up that fades over a run, not a
  * cost of the program. A thread that ends between two readings takes its
  * last stretch with it.
  */
object Cpu {
  import java.nio.file.{Files, NoSuchFileException, Path, Paths}

  private val tasks = Paths.get("/proc/self/task")
  private val compiler = scala.collection.mutable.Map.empty[String, Boolean]

  private def text(p: Path): String = new String(Files.readAllBytes(p))

  /** Run time in ns of every live thread but the JIT compiler's, by thread id. */
  def read(): Map[String, Long] = synchronized {
    val out = Map.newBuilder[String, Long]
    val dir = Files.newDirectoryStream(tasks)
    try dir.forEach { t =>
      val tid = t.getFileName.toString
      try {
        if (!compiler.getOrElseUpdate(tid, text(t.resolve("comm")).contains("CompilerThre"))) {
          val s = text(t.resolve("schedstat"))
          out += tid -> s.substring(0, s.indexOf(' ')).toLong
        }
      } catch { case _: NoSuchFileException => () } // the thread ended
    } finally dir.close()
    out.result()
  }

  /** CPU milliseconds of all threads since the reading `from`. */
  def ms(from: Map[String, Long]): Double =
    read().iterator.map { case (t, ns) => ns - from.getOrElse(t, 0L) }.sum / 1e6
}

/** Garbage-collector time and bytes allocated by all live threads, read at
  * the start and end of a traced replay.
  */
final class JvmCounters {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum
  private def allocBytes: Long = threads.getThreadAllocatedBytes(threads.getAllThreadIds).filter(_ > 0).sum

  private val gc0 = gcMs
  private val alloc0 = allocBytes

  /** (GC ms, allocated MB) since construction, each divided by `steps`. */
  def perStep(steps: Int): (Double, Double) = {
    val k = math.max(steps, 1).toDouble
    ((gcMs - gc0) / k, (allocBytes - alloc0) / 1048576.0 / k)
  }
}

/** Checks on an exported sample: ⌊C⌋ or ⌊C⌋+1 items, distinct ids, and every
  * item from a batch already ingested (`ingested`).
  */
object SampleChecks {
  def apply[P](checks: Checks, where: String, sample: IndexedSeq[Item[P]], c: Double)
              (ingested: Item[P] => Boolean): Unit = {
    val fl = math.floor(c + 1e-9).toLong
    checks(sample.size == fl || sample.size == fl + 1, s"$where: sample of ${sample.size} items, C=$c")
    checks(sample.map(_.id).distinct.size == sample.size, s"$where: duplicate ids in the sample")
    checks(sample.forall(ingested), s"$where: item not from an ingested batch")
  }
}

/** The set-up side of a run. Set-up is repeated several times; the first
  * repetition warms the JIT and is not timed, and `setup_s` is the median CPU
  * time (see `Cpu`) of the others. Each repetition builds a `chunk` of
  * the inputs and one set of samplers, and takes that set through its first
  * steps (the workload says which), so building the inputs counts in
  * `setup_s` too. Every set is seeded alike, so each one is a replay of the
  * same work (see `Phases`).
  */
object Setup {
  /** Set-up repetitions, unless a workload needs one per replay. */
  val Sets = 3

  /** The indices of `0 until size` that repetition `k` of `sets` builds. */
  def chunk(k: Int, sets: Int, size: Int): Range = (k * size / sets) until ((k + 1) * size / sets)

  /** Run `unit` for each of `sets` repetitions; return the results and the
    * median CPU seconds of the timed ones.
    */
  def repeat[S](sets: Int)(unit: Int => S): (Seq[S], Double) = {
    val first = unit(0)
    val runs = (1 until sets).map(i => Clock.timedCpu(unit(i)))
    (first +: runs.map(_._1), seconds(runs.map(r => (r._2, r._3))))
  }

  /** Median CPU seconds of timed set-ups given as (wall ms, CPU ms); both
    * are printed to standard error.
    */
  def seconds(runs: Seq[(Double, Double)]): Double = {
    System.err.println("set-up repetitions, wall / CPU s: " + runs.map { case (w, c) => f"${w / 1e3}%.3f/${c / 1e3}%.3f" }.mkString(" "))
    Stats.median(runs.map(_._2)) / 1000.0
  }
}

/** The steps of one replay: a fixed number, so two versions of the program
  * always time the same steps, with `seconds` from the first step on only as
  * an upper limit.
  */
final class Quota(val steps: Int, seconds: Double) {
  private var deadlineNs = Long.MaxValue

  /** Whether step `done + 1` may run. */
  def allows(done: Int): Boolean = {
    if (deadlineNs == Long.MaxValue) deadlineNs = System.nanoTime() + (seconds * 1e9).toLong
    done < steps && System.nanoTime() < deadlineNs
  }

  def note(done: Int, ledger: FailureLedger): Seq[String] =
    if (done < steps && !ledger.broken) Seq(s"time limit reached after $done of $steps steps")
    else Nil
}

/** One timed step: the implementation it belongs to, its wall-clock and CPU
  * milliseconds, and the items it ingested.
  */
final case class Step(group: String, ms: Double, cpuMs: Double, items: Long)

/** One replay of a measured phase: its steps in order, values that are not
  * step times (`extras`: T-TBS medians, Miss%, …), the per-layer values
  * (traced only) and its failure counts.
  */
final case class Phase(steps: IndexedSeq[Step], extras: Map[String, Double], layers: Map[String, Double],
                       attempted: Long, failed: Long, notes: Seq[String])

object Phase {

  /** Step j of the result has the least wall-clock and the least CPU time of
    * step j in the replays that ran it.
    */
  def best(replays: Seq[Phase]): IndexedSeq[Step] = {
    val n = if (replays.isEmpty) 0 else replays.map(_.steps.size).max
    (0 until n).map { j =>
      val xs = replays.flatMap(_.steps.lift(j))
      xs.head.copy(ms = xs.map(_.ms).min, cpuMs = xs.map(_.cpuMs).min)
    }
  }

  /** Geometric mean over the groups of each group's mean of `time` (with one
    * group, the mean).
    */
  def stepMean(steps: Seq[Step], time: Step => Double): Double = {
    val means = steps.groupMap(_.group)(time).values.map(Stats.mean).toSeq
    if (means.isEmpty) 0.0 else Stats.geomean(means)
  }

  /** Items per second of wall-clock step time. */
  def itemsPerS(steps: Seq[Step]): Double =
    if (steps.isEmpty) 0.0 else steps.map(_.items).sum / (steps.map(_.ms).sum / 1000.0)

  /** Median wall-clock step time of each group that has a per-layer
    * `batch_ms.p50`.
    */
  def medians(steps: Seq[Step]): Map[String, Double] =
    steps.groupMap(_.group)(_.ms).collect {
      case (g, ms) if Catalog.batchImpls.contains(g) => s"$g.batch_ms.p50" -> Stats.median(ms)
    }
}

/** The measured side of a run. The set-up gave every replay an identically
  * seeded set of samplers with the same inputs, so step j does the same work
  * in every replay. The replays run one after the other, and each step counts
  * with its least CPU time: a step slowed down by other load on the host in
  * one replay is timed again seconds later in the next.
  */
object Phases {

  /** Untraced run: `replays` replays of `steps` steps each; `step_cpu_ms`
    * comes from the least CPU time of every step. Traced run: the last replay
    * is traced and gives the layer metrics; the others are untraced and give
    * the per-implementation medians and the tracing overhead (the traced
    * replay's mean step CPU time minus the untraced replays' mean).
    * Each replay may measure for `ctx.seconds / replays` seconds. `setupS` is
    * read after the replays, so a workload may set up each replay just before
    * it runs.
    */
  def run(ctx: Ctx, setupS: => Double, checks: Checks, replays: Int, steps: Int,
          measure: (Int, Quota, Boolean) => Phase): Outcome = {
    def quota = new Quota(steps, ctx.seconds / replays)
    val plainCount = if (ctx.traced) replays - 1 else replays
    val plain = (0 until plainCount).map(r => measure(r, quota, false))
    val traced = if (ctx.traced) Some(measure(replays - 1, quota, true)) else None
    val all = plain ++ traced
    val best = Phase.best(plain)
    def cpu(steps: Seq[Step]) = Phase.stepMean(steps, _.cpuMs)
    def wall(steps: Seq[Step]) = Phase.stepMean(steps, _.ms)
    val notes = all.flatMap(_.notes) ++ Seq(
      "step CPU ms of each replay: " + all.map(p => f"${cpu(p.steps)}%.2f").mkString(" ") +
        (if (ctx.traced) " (the last traced)" else "") + f"; of the least per step: ${cpu(best)}%.2f",
      "step wall ms of each replay: " + all.map(p => f"${wall(p.steps)}%.2f").mkString(" ") +
        f"; of the least per step: ${wall(best)}%.2f, items per wall s ${Phase.itemsPerS(best)}%.0f") ++
      (Phase.medians(best) ++ plain.headOption.map(_.extras).getOrElse(Map.empty)).toSeq.sorted
        .map { case (k, v) => f"$k $v%.4f" }
    val metrics = traced match {
      case None => Map("setup_s" -> setupS, "step_cpu_ms" -> cpu(best))
      case Some(t) =>
        val extras = plain.flatMap(_.extras.keys).distinct.map(k => k -> Stats.median(plain.flatMap(_.extras.get(k)))).toMap
        val overhead = cpu(t.steps) - Stats.mean(plain.map(p => cpu(p.steps)))
        t.layers ++ Phase.medians(best) ++ extras + ("trace.overhead_ms" -> overhead)
    }
    Outcome(metrics, all.map(_.attempted).sum, all.map(_.failed).sum, checks, notes)
  }
}

/** Failure bookkeeping for a closed loop of `steps` steps: a step that
  * throws is failed, the sampler is then considered broken, the loop stops,
  * and every step left counts as attempted and failed.
  */
final class FailureLedger(steps: Int) {
  var attempted = 0L
  var failed = 0L
  var error: Option[String] = None

  def broken: Boolean = error.isDefined

  /** Run step `i` (1-based); None if it threw. */
  def step[A](i: Int)(body: => A): Option[A] = {
    attempted += 1
    try Some(body)
    catch {
      case e: Throwable =>
        val remaining = math.max(steps - i, 0)
        attempted += remaining
        failed += 1 + remaining
        error = Some(s"step $i: ${e.getClass.getName}: ${Option(e.getMessage).getOrElse("").take(300)}")
        None
    }
  }

  def note: Seq[String] = error.toSeq.map(e => s"sampler broke, $failed of $attempted steps failed: $e")
}

/** Direct timed calls into `repro.core.Rng` at the argument sizes a workload
  * produces. `Rng` is only called from inside the samplers, so it is timed
  * here instead of wrapped.
  */
object RngProbe {
  import repro.core.Rng

  /** @param n reservoir size, @param m items swapped per batch,
    * @param batch batch size, @param parts partitions
    */
  def apply(seed: Long, n: Int, m: Int, batch: Int, parts: Int, lambda: Double): Map[String, Double] = {
    val rng = new Rng(seed)
    val batchSeq = (0 until batch).toVector
    val strata = IndexedSeq.fill(parts)(n.toLong / parts)
    def ns(body: => Any): Double = {
      val times = ArrayBuffer.empty[Double]
      val t0 = System.nanoTime()
      while (times.size < 5 || (times.size < 200 && System.nanoTime() - t0 < 40e6)) {
        val s = System.nanoTime(); body; times += (System.nanoTime() - s).toDouble
      }
      Stats.median(times.toSeq)
    }
    Map(
      "rng.binomial_ns" -> ns(rng.binomial(n.toLong, math.exp(-lambda))),
      "rng.hypergeometric_ns" -> ns(rng.hypergeometric(m.toLong, n.toLong / 2, n.toLong - n / 2)),
      "rng.mvhg_ns" -> ns(rng.multivariateHypergeometric(m.toLong, strata)),
      "rng.sample_indices_ns" -> ns(rng.sampleIndices(n, m)),
      "rng.sample_wo_repl_ns" -> ns(rng.sampleWithoutReplacement(batchSeq, math.min(m, batch))),
    )
  }
}

/** Small helpers for per-layer maps. */
object Layers {
  def perStep(total: Double, steps: Int): Double = if (steps <= 0) 0.0 else total / steps

  def jvm(c: JvmCounters, steps: Int): Map[String, Double] = {
    val (gc, alloc) = c.perStep(steps)
    Map("jvm.gc_ms" -> gc, "jvm.alloc_mb" -> alloc)
  }
}
