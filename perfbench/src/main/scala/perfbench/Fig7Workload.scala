package perfbench

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.core.{Item, Rng}
import repro.dist._
import repro.exp.tables.RuntimeTable
import scala.collection.mutable.ArrayBuffer

/** `fig7-large-batch`: the paper's Fig 7. Constant batches of B items against
  * a 2B reservoir (the paper's 2:1 ratio), λ = 0.07. Each of the five
  * implementations gets identical cached batches (`RuntimeTable.genBatch`),
  * one implementation after the other within a round, so all five see the
  * same machine state. A first batch of 2B items saturates every reservoir in
  * set-up; each timed batch then goes through `replaceRandom` (D-R-TBS) or the
  * co-located pass (D-T-TBS). Every set-up repetition builds an identically
  * seeded set of the five samplers with its own copies of the same `Rounds`
  * rounds of batches, and each set replays those rounds; the rounds are few,
  * so lineage stays short.
  *
  * A step is one batch of one implementation; `step_cpu_ms` is the geometric
  * mean over the five implementations of each one's mean batch time. After every round
  * the Dist-CP sample is collected and checked.
  */
final class Fig7Workload(ctx: Ctx, spark: SparkSession) {
  import Fig7Workload._

  private type Batch = RDD[Item[Int]]

  private val sc = spark.sparkContext
  private val checks = new Checks

  /** Batch index offset, so the item ids and payloads depend on the seed. */
  private val t0: Int = 1 + (math.abs(ctx.subSeed(1)) % 1000).toInt * 100

  private final class Impl(val name: String, val process: Batch => Unit,
                           val drtbs: Option[DRTBS[Int, Batch]], val raw: Option[ReservoirOps[Int, Batch]],
                           val timedOps: Option[TimedOps[Int, Batch]]) {
    var expectedW = 0.0
    var processNs = 0L
    val stepMs: ArrayBuffer[Double] = ArrayBuffer.empty[Double]
    val stepCpuMs: ArrayBuffer[Double] = ArrayBuffer.empty[Double]

    def step(b: Batch, size: Long, where: String): Unit = {
      val c0 = Cpu.read()
      val s = System.nanoTime()
      process(b)
      val ns = System.nanoTime() - s
      stepCpuMs += Cpu.ms(c0)
      processNs += ns
      stepMs += ns / 1e6
      drtbs.foreach { d =>
        expectedW = expectedW * math.exp(-Lambda) + size
        val tol = 1e-6 * expectedW
        checks(math.abs(d.totalWeight - expectedW) <= tol, s"$name $where: W=${d.totalWeight}, closed form $expectedW")
        checks(math.abs(d.sampleWeight - math.min(N.toDouble, expectedW)) <= tol, s"$name $where: C=${d.sampleWeight}")
        checks(raw.get.count == math.floor(d.sampleWeight + 1e-9).toLong,
          s"$name $where: ${raw.get.count} full items, C=${d.sampleWeight}")
      }
    }
  }

  /** One set of samplers with its own cached copies of the timed rounds, and
    * the RDDs its set-up left cached.
    */
  private final case class Replay(rounds: IndexedSeq[Seq[Batch]], impls: Seq[Impl], cached: collection.Set[Int])

  /** The five implementations, in the paper's order (slowest first). */
  private def build(unit: Int, traced: Boolean): Seq[Impl] = {
    def seed(k: Int): Long = ctx.subSeed(100 + k)
    def viaOps(name: String, raw: ReservoirOps[Int, Batch], k: Int): Impl = {
      val timed = if (traced) Some(new TimedOps(raw)) else None
      val d = new DRTBS[Int, Batch](N, Lambda, timed.getOrElse(raw), new Rng(seed(k + 5)))
      new Impl(name, d.processBatch, Some(d), Some(raw), timed)
    }
    val dttbs = new DTTBS[Int](sc, N, Lambda, B.toDouble, Parts, seed(4))
    Seq(
      viaOps("kv_rj", new KVReservoirOps[Int](sc, Parts, coLocatedJoin = false, seed(0)), 0),
      viaOps("kv_cj", new KVReservoirOps[Int](sc, Parts, coLocatedJoin = true, seed(1)), 1),
      viaOps("cent_cp", new CoPartReservoirOps[Int](sc, Parts, distributedDecisions = false, seed(2)), 2),
      viaOps("dist_cp", new CoPartReservoirOps[Int](sc, Parts, distributedDecisions = true, seed(3)), 3),
      new Impl("dttbs", dttbs.processBatch, None, None, None),
    )
  }

  /** One identical cached copy of batch `t` per implementation. */
  private def round(t: Int, size: Int): Seq[Batch] =
    Seq.fill(5)(RuntimeTable.genBatch(spark, t, size, Parts))

  /** Set-up of one set of samplers: build its copies of the timed rounds,
    * then the samplers, and saturate each with a first batch of 2B items.
    * Returns the rounds, the samplers and the reservoir RDDs set-up left
    * cached, so they can be released once the set has been measured.
    */
  private def open(unit: Int, traced: Boolean): Replay = {
    val rounds = (1 to Rounds).map(r => round(t0 + r, B))
    val before = sc.getPersistentRDDs.keySet
    val impls = build(unit, traced)
    val first = round(t0, N)
    impls.zip(first).foreach { case (impl, b) =>
      SparkTrace.tag(sc, impl.name, 0)
      impl.step(b, N, "first batch")
      if (impl.drtbs.isEmpty) b.unpersist(blocking = false) // the D-R-TBS backends release their own
    }
    impls.foreach { i => i.stepMs.clear(); i.stepCpuMs.clear() }
    Replay(rounds, impls, sc.getPersistentRDDs.keySet -- before)
  }

  private def measure(set: Replay, quota: Quota, traced: Boolean): Phase = {
    val impls = set.impls
    val ledger = new FailureLedger(quota.steps)
    val sampleMs = ArrayBuffer.empty[Double]
    val steps = ArrayBuffer.empty[Step]
    val dist = impls.find(_.name == "dist_cp").get
    impls.foreach(_.timedOps.foreach(_.reset()))
    val process0 = impls.map(_.processNs)
    val cached0 = sc.getPersistentRDDs.keySet

    def loop(): Int = {
      var r = 0
      while (!ledger.broken && quota.allows(r)) {
        val batches = set.rounds(r)
        val t = t0 + 1 + r
        r += 1
        ledger.step(r) {
          impls.zip(batches).foreach { case (impl, b) =>
            SparkTrace.tag(sc, impl.name, t)
            impl.step(b, B, s"batch $t")
            steps += Step(impl.name, impl.stepMs.last, impl.stepCpuMs.last, B)
          }
          SparkTrace.tag(sc, "dist_cp.export", t)
          val (sample, ms) = Clock.timed(dist.drtbs.get.sample)
          sampleMs += ms
          SampleChecks(checks, s"dist_cp batch $t", sample, dist.drtbs.get.sampleWeight)(i =>
            i.batch >= t0 && i.batch <= t && i.id / IdsPerBatch == i.batch)
        }
        batches.last.unpersist(blocking = false) // D-T-TBS keeps its batch cached; the others release theirs
      }
      r
    }

    var rounds = 0
    val layers =
      if (!traced) { rounds = loop(); Map.empty[String, Double] }
      else {
        val jvm = new JvmCounters
        SparkTrace.during(sc) { trace =>
          rounds = loop()
          val perImpl = impls.zip(process0).flatMap { case (impl, p0) =>
            trace.layers(sc, impl.name, rounds) ++
              impl.timedOps.map(_.layers(impl.name, impl.processNs - p0, rounds)).getOrElse(Map.empty)
          }
          val m = math.round(B.toDouble * N / (B + N * math.exp(-Lambda))).toInt
          perImpl.toMap ++ Layers.jvm(jvm, rounds * impls.size) ++ RngProbe(ctx.subSeed(30), N, m, B, Parts, Lambda)
        }
      }
    // Release what this set still holds: unused rounds, its set-up RDDs and its reservoirs.
    set.rounds.drop(rounds).flatten.foreach(_.unpersist(blocking = false))
    (set.cached ++ (sc.getPersistentRDDs.keySet -- cached0))
      .foreach(id => sc.getPersistentRDDs.get(id).foreach(_.unpersist(blocking = false)))

    val notes = impls.map { i =>
      f"${i.name}: ${i.stepMs.size} batches, p50 ${Stats.quantileOr0(i.stepMs.toSeq, 0.5)}%.1f ms, " +
        f"p90 ${Stats.quantileOr0(i.stepMs.toSeq, 0.9)}%.1f ms"
    }
    impls.foreach { i => i.stepMs.clear(); i.stepCpuMs.clear() }
    Phase(steps.toIndexedSeq, Map.empty, layers, ledger.attempted * impls.size, ledger.failed * impls.size,
      ledger.note ++ quota.note(rounds, ledger) ++ notes :+
        f"dist_cp sample collected after each round: p50 ${Stats.quantileOr0(sampleMs.toSeq, 0.5)}%.1f ms")
  }

  def run(): Outcome = {
    val (sets, setupS) = Setup.repeat(Setup.Sets)(unit => open(unit, traced = ctx.traced && unit == Setup.Sets - 1))
    Phases.run(ctx, setupS, checks, Setup.Sets, Rounds, (replay, quota, traced) => measure(sets(replay), quota, traced))
  }
}

object Fig7Workload {
  val B = 50000
  val N: Int = 2 * B
  val Lambda = 0.07
  val Parts = 4
  /** Rounds of five batches that each replay runs. */
  val Rounds = 2
  /** `RuntimeTable.genBatch` gives batch t the ids t·1e8 + pid·1e6 + i. */
  val IdsPerBatch = 100000000L
}
