package repro.dist

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Item, LatentSample, Rng, RTBS}

/** Tests of the distributed R-TBS *driver* logic against the in-memory
  * backend: this exercises the exact code paths the Spark backends run, at
  * Monte-Carlo repetition counts Spark could not sustain.
  */
class DRTBSLocalSpec extends AnyFunSuite {

  private def mkBatch(t: Int, size: Int): IndexedSeq[Item[Int]] =
    (0 until size).map(i => Item(t.toLong * 1000000 + i, t, i))

  private def mkDrtbs(n: Int, lambda: Double, seed: Long) = {
    val ops = new LocalReservoirOps[Int](new Rng(seed ^ 0x1234))
    new DRTBS[Int, IndexedSeq[Item[Int]]](n, lambda, ops, new Rng(seed))
  }

  private def weights(lambda: Double, sizes: Seq[Int]): Seq[Double] = {
    var w = 0.0
    sizes.map { b => w = w * math.exp(-lambda) + b; w }
  }

  test("weight trajectory matches the single-node R-TBS exactly") {
    val lambda = 0.07; val n = 60
    val sizes = Seq(10, 0, 25, 100, 0, 0, 40, 3, 0, 17)
    val d = mkDrtbs(n, lambda, 1)
    val r = new RTBS[Int](n, lambda, 2)
    sizes.zipWithIndex.foreach { case (b, i) =>
      val batch = mkBatch(i + 1, b)
      d.processBatch(batch)
      r.processBatch(batch)
      assert(math.abs(d.totalWeight - r.totalWeight) < 1e-9, s"W at t=${i + 1}")
      assert(math.abs(d.sampleWeight - r.sampleWeight) < 1e-9, s"C at t=${i + 1}")
    }
  }

  test("sample size never exceeds n; footprint tracks floor(C)") {
    val d = mkDrtbs(40, 0.15, 3)
    val rng = new Rng(4)
    (1 to 150).foreach { t =>
      d.processBatch(mkBatch(t, Seq(0, 5, 90, 20, 1)(rng.nextInt(5))))
      assert(d.sample.size <= 40)
      val c = LatentSample.snap(d.sampleWeight)
      assert(d.latentItems.size >= math.floor(c).toInt)
      assert(d.latentItems.size <= math.floor(c).toInt + 1)
    }
  }

  /** Monte Carlo invariant (4) check, mirroring RTBSSpec but through the
    * DRTBS driver + ReservoirOps path.
    */
  private def checkInvariant(n: Int, lambda: Double, sizes: Seq[Int],
                             reps: Int = 3000, tol: Double = 0.04): Unit = {
    val byBatch = scala.collection.mutable.Map.empty[Int, Long].withDefaultValue(0L)
    (1 to reps).foreach { rep =>
      val d = mkDrtbs(n, lambda, rep.toLong * 15485863L + 11)
      sizes.zipWithIndex.foreach { case (b, i) => d.processBatch(mkBatch(i + 1, b)) }
      d.sample.foreach(it => byBatch(it.batch) += 1)
    }
    val ws = weights(lambda, sizes)
    val wT = ws.last; val cT = math.min(n.toDouble, wT); val bigT = sizes.size
    sizes.zipWithIndex.foreach { case (b, i) =>
      if (b > 0) {
        val expect = cT * math.exp(-lambda * (bigT - (i + 1))) / wT
        val got = byBatch(i + 1).toDouble / (b.toLong * reps)
        assert(math.abs(got - expect) < tol, s"batch ${i + 1}: Pr=$got expect=$expect")
      }
    }
  }

  test("invariant (4): unsaturated (exercises distributed downsample + partial moves)")(
    checkInvariant(n = 500, lambda = 0.15, sizes = Seq(15, 15, 15, 15, 15)))

  test("invariant (4): saturated replacement path")(
    checkInvariant(n = 30, lambda = 0.1, sizes = Seq(25, 25, 25, 25, 25, 25)))

  test("invariant (4): overshoot then undershoot")(
    checkInvariant(n = 25, lambda = 0.6, sizes = Seq(60, 0, 0, 5, 8)))

  test("invariant (4): empty batches interleaved")(
    checkInvariant(n = 40, lambda = 0.2, sizes = Seq(30, 0, 30, 0, 0, 30)))

  test("driver is deterministic per seed") {
    def run(seed: Long): Seq[Long] = {
      val d = mkDrtbs(15, 0.2, seed)
      (1 to 25).foreach(t => d.processBatch(mkBatch(t, 9)))
      d.latentItems.map(_.id).sorted
    }
    assert(run(42) == run(42))
  }

  test("LocalReservoirOps primitives: delete/extract/insert bookkeeping") {
    val ops = new LocalReservoirOps[Int](new Rng(5))
    ops.appendAll(mkBatch(1, 10))
    assert(ops.count == 10)
    ops.deleteRandom(3)
    assert(ops.count == 7)
    val x = ops.extractRandomOne()
    assert(ops.count == 6 && !ops.items.contains(x))
    ops.insertOne(x)
    assert(ops.count == 7 && ops.items.contains(x))
    ops.replaceRandom(2, mkBatch(2, 5))
    assert(ops.count == 7)
    assert(ops.items.count(_.batch == 2) == 2)
  }

  test("LocalReservoirOps.deleteRandom removes a pinned item set for a fixed seed") {
    // The set the tail-shifting delete removed for this seed.
    val ops = new LocalReservoirOps[Int](new Rng(6))
    ops.appendAll((0 until 500).map(i => Item(i.toLong, 0, i)))
    ops.deleteRandom(120)
    val gone = (0L until 500L).toSet -- ops.items.map(_.id)
    assert(ops.count == 380 && gone.size == 120)
    assert(gone.toSeq.sorted.take(10) == Seq(0, 4, 5, 8, 12, 13, 14, 15, 16, 20))
    assert(scala.util.hashing.MurmurHash3.unorderedHash(gone) == -2103020159)
  }
}
