package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Tests for R-TBS (Algorithm 2): size bound, weight bookkeeping, and
  * Monte-Carlo verification of the inclusion invariant (4) and the relative
  * inclusion property (1) across saturation regimes.
  */
class RTBSSpec extends AnyFunSuite {

  private def mkBatch(t: Int, size: Int): IndexedSeq[Item[Int]] =
    (0 until size).map(i => Item(t.toLong * 1000000 + i, t, i))

  /** Deterministic weight trajectory for given batch sizes. */
  private def weights(lambda: Double, sizes: Seq[Int]): Seq[Double] = {
    var w = 0.0
    sizes.map { b => w = w * math.exp(-lambda) + b; w }
  }

  test("sample size never exceeds n under wildly varying batches") {
    val rng = new Rng(1)
    val r = new RTBS[Int](50, 0.1, 42)
    (1 to 200).foreach { t =>
      val size = Seq(0, 1, 5, 200, 17, 0, 1000)(rng.nextInt(7))
      r.processBatch(mkBatch(t, size))
      assert(r.sample.size <= 50, s"overflow at t=$t")
      assert(r.footprint <= 51)
    }
  }

  test("total weight follows W_t = e^-lambda W_(t-1) + B_t exactly") {
    val lambda = 0.07
    val r = new RTBS[Int](100, lambda, 7)
    val sizes = Seq(10, 0, 25, 3, 0, 0, 40, 120, 1)
    val expected = weights(lambda, sizes)
    sizes.zipWithIndex.foreach { case (b, i) =>
      r.processBatch(mkBatch(i + 1, b))
      assert(math.abs(r.totalWeight - expected(i)) < 1e-6,
        s"t=${i + 1}: W=${r.totalWeight} expect=${expected(i)}")
    }
  }

  test("sample weight C_t = min(n, W_t) in every regime") {
    val lambda = 0.2
    val n = 30
    val r = new RTBS[Int](n, lambda, 8)
    val sizes = Seq(5, 5, 5, 100, 0, 0, 0, 0, 0, 0, 0, 0, 50, 2)
    val ws = weights(lambda, sizes)
    sizes.zipWithIndex.foreach { case (b, i) =>
      r.processBatch(mkBatch(i + 1, b))
      val expect = math.min(n.toDouble, ws(i))
      assert(math.abs(r.sampleWeight - expect) < 1e-6,
        s"t=${i + 1}: C=${r.sampleWeight} expect=$expect")
    }
  }

  test("unsaturated steady state stabilizes at b/(1-e^-lambda) — the paper's 1479") {
    // §6.3: n=1600, b=100, lambda=0.07 -> reservoir never full, stabilizes at 1479.
    val r = new RTBS[Int](1600, 0.07, 9)
    (1 to 400).foreach(t => r.processBatch(mkBatch(t, 100)))
    val limit = 100.0 / (1.0 - math.exp(-0.07))
    assert(math.abs(limit - 1479.0) < 1.0, s"closed form should be ~1479, got $limit")
    assert(math.abs(r.sampleWeight - limit) < 1.0, s"C=${r.sampleWeight}")
    assert(r.sample.size == 1479 || r.sample.size == 1480)
  }

  test("empty batches decay the sample towards zero") {
    val r = new RTBS[Int](10, 0.5, 10)
    r.processBatch(mkBatch(1, 10))
    (2 to 40).foreach(t => r.processBatch(Vector.empty))
    assert(r.sampleWeight < 0.001)
    assert(r.sample.size <= 1)
  }

  test("real-valued time gaps: two 0.5 steps equal one unit step in weight") {
    val a = new RTBS[Int](100, 0.3, 11)
    val b = new RTBS[Int](100, 0.3, 12)
    a.processBatch(mkBatch(1, 20)) // dt = 1
    b.step(mkBatch(1, 20), 1.0)
    a.step(Vector.empty, 0.5)
    a.step(Vector.empty, 0.5)
    b.step(Vector.empty, 1.0)
    assert(math.abs(a.totalWeight - b.totalWeight) < 1e-9)
  }

  test("saturated sample keeps exactly n full items, no partial") {
    val r = new RTBS[Int](20, 0.1, 13)
    (1 to 50).foreach(t => r.processBatch(mkBatch(t, 30)))
    assert(r.sample.size == 20)
    assert(r.latentItems.size == 20)
    assert(math.abs(r.sampleWeight - 20.0) < 1e-9)
  }

  /** Monte Carlo estimate of per-batch inclusion probabilities at final time,
    * compared against the invariant (4): Pr[i in S_T] = C_T · e^{-λ(T-j)} / W_T.
    */
  private def checkInvariant(n: Int, lambda: Double, sizes: Seq[Int],
                             reps: Int = 3000, tol: Double = 0.04): Unit = {
    val byBatch = scala.collection.mutable.Map.empty[Int, Long].withDefaultValue(0L)
    (1 to reps).foreach { rep =>
      val r = new RTBS[Int](n, lambda, rep.toLong * 104729 + 17)
      sizes.zipWithIndex.foreach { case (b, i) => r.processBatch(mkBatch(i + 1, b)) }
      r.sample.foreach(it => byBatch(it.batch) += 1)
    }
    val ws = weights(lambda, sizes)
    val wT = ws.last
    val cT = math.min(n.toDouble, wT)
    val bigT = sizes.size
    sizes.zipWithIndex.foreach { case (b, i) =>
      if (b > 0) {
        val t = i + 1
        val expect = cT * math.exp(-lambda * (bigT - t)) / wT
        val got = byBatch(t).toDouble / (b.toLong * reps)
        assert(math.abs(got - expect) < tol,
          s"batch $t: Pr=$got expect=$expect (n=$n lambda=$lambda)")
      }
    }
  }

  test("invariant (4): unsaturated regime")(
    checkInvariant(n = 1000, lambda = 0.1, sizes = Seq(20, 20, 20, 20, 20, 20)))

  test("invariant (4): saturated regime with replacement") (
    checkInvariant(n = 40, lambda = 0.1, sizes = Seq(30, 30, 30, 30, 30, 30, 30, 30)))

  test("invariant (4): overshoot transition (first batch overflows)") (
    checkInvariant(n = 25, lambda = 0.2, sizes = Seq(60, 10, 10)))

  test("invariant (4): undershoot transition (saturated then starved)") (
    checkInvariant(n = 30, lambda = 0.5, sizes = Seq(50, 50, 0, 0, 2, 3)))

  test("invariant (4): fluctuating batch sizes with empty batches") (
    checkInvariant(n = 35, lambda = 0.15, sizes = Seq(10, 0, 80, 0, 0, 25, 1, 40)))

  test("invariant (4): large lambda, sparse arrivals") (
    checkInvariant(n = 20, lambda = 1.0, sizes = Seq(15, 0, 0, 8, 0, 4)))

  test("relative inclusion property (1): ratio across batches is e^(-lambda*gap)") {
    val lambda = 0.3
    val sizes = Seq(25, 25, 25, 25, 25)
    val reps = 4000
    val byBatch = scala.collection.mutable.Map.empty[Int, Long].withDefaultValue(0L)
    (1 to reps).foreach { rep =>
      val r = new RTBS[Int](30, lambda, rep.toLong * 31337 + 3)
      sizes.zipWithIndex.foreach { case (b, i) => r.processBatch(mkBatch(i + 1, b)) }
      r.sample.foreach(it => byBatch(it.batch) += 1)
    }
    val p = sizes.indices.map(i => byBatch(i + 1).toDouble / (sizes(i) * reps))
    // Every adjacent pair of batches should have inclusion ratio e^-lambda.
    (0 until sizes.size - 1).foreach { i =>
      val ratio = p(i) / p(i + 1)
      assert(math.abs(ratio - math.exp(-lambda)) < 0.08,
        s"batches ${i + 1}/${i + 2}: ratio=$ratio expect=${math.exp(-lambda)}")
    }
  }

  test("items within a batch are sampled uniformly (equal inclusion probs)") {
    val reps = 6000
    val counts = new Array[Int](10)
    (1 to reps).foreach { rep =>
      val r = new RTBS[Int](8, 0.1, rep.toLong * 7 + 5)
      r.processBatch(mkBatch(1, 10))
      r.processBatch(mkBatch(2, 10))
      r.sample.filter(_.batch == 1).foreach(it => counts((it.id % 1000000).toInt) += 1)
    }
    val mean = counts.sum.toDouble / 10
    counts.foreach(c => assert(math.abs(c - mean) / reps < 0.03, s"counts=${counts.toSeq}"))
  }

  test("deterministic given the seed") {
    def run(seed: Long): Seq[Long] = {
      val r = new RTBS[Int](10, 0.2, seed)
      (1 to 20).foreach(t => r.processBatch(mkBatch(t, 7)))
      r.latentItems.map(_.id)
    }
    assert(run(123) == run(123))
  }

  test("n = 20000: bound, distinct ids and footprint hold on every mostly saturated batch") {
    // λ = 0.07 and StreamGen's Uniform(0, 2b) sizes with b 10 % above the
    // steady-state rate n(1 − e^{−λ}): W wanders around 1.1n, so most batches
    // take the saturated swap and some dip into the other branches.
    val n = 20000; val lambda = 0.07
    val regime = repro.data.StreamGen.UniformBatch(math.round(1.1 * n * (1 - math.exp(-lambda))).toInt)
    val sizeRng = new Rng(31)
    val r = new RTBS[Int](n, lambda, 32)
    r.processBatch(mkBatch(0, n))
    var saturated = 0
    (1 to 40).foreach { t =>
      val wasSaturated = r.totalWeight >= n
      r.processBatch(mkBatch(t, regime.sizeAt(t, sizeRng)))
      if (wasSaturated && r.totalWeight >= n) saturated += 1
      val s = r.sample
      assert(s.size <= n, s"t=$t: |S|=${s.size}")
      assert(s.map(_.id).distinct.size == s.size, s"t=$t: duplicate ids in S")
      val latent = r.latentItems
      assert(latent.map(_.id).distinct.size == latent.size, s"t=$t: duplicate ids in A ∪ π")
      val fl = math.floor(LatentSample.snap(r.sampleWeight)).toInt
      assert(latent.size == fl || latent.size == fl + 1, s"t=$t: footprint ${latent.size}, C=${r.sampleWeight}")
    }
    assert(saturated >= 25, s"only $saturated of 40 batches took the saturated swap")
  }

  test("constructor validation") {
    intercept[IllegalArgumentException](new RTBS[Int](0, 0.1, 1))
    intercept[IllegalArgumentException](new RTBS[Int](10, -0.1, 1))
  }
}
