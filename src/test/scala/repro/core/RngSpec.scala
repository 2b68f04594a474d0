package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.hashing.MurmurHash3

/** Unit and statistical tests for the random-variate substrate. All seeds are
  * fixed, so every assertion is deterministic.
  */
class RngSpec extends AnyFunSuite {

  test("uniform stays in [0,1)") {
    val rng = new Rng(1)
    (1 to 10000).foreach { _ =>
      val u = rng.uniform()
      assert(u >= 0.0 && u < 1.0)
    }
  }

  test("binomial: p=0 gives 0") { assert(new Rng(2).binomial(100, 0.0) == 0) }
  test("binomial: p=1 gives n") { assert(new Rng(3).binomial(100, 1.0) == 100) }
  test("binomial: n=0 gives 0") { assert(new Rng(4).binomial(0, 0.5) == 0) }
  test("binomial: negative n gives 0") { assert(new Rng(5).binomial(-5, 0.5) == 0) }
  test("binomial rejects p outside [0,1]") {
    intercept[IllegalArgumentException](new Rng(6).binomial(10, 1.5))
    intercept[IllegalArgumentException](new Rng(6).binomial(10, -0.1))
  }

  test("binomial stays within [0, n]") {
    val rng = new Rng(7)
    (1 to 2000).foreach { _ =>
      val x = rng.binomial(37, 0.43)
      assert(x >= 0 && x <= 37)
    }
  }

  test("binomial mean and variance match np and np(1-p) — small-np inversion path") {
    val rng = new Rng(8)
    val n = 500; val p = 0.01 // np = 5 < 30 -> inversion
    val draws = Vector.fill(20000)(rng.binomial(n, p).toDouble)
    val mean = draws.sum / draws.size
    val varr = draws.map(x => (x - mean) * (x - mean)).sum / draws.size
    assert(math.abs(mean - n * p) < 0.1, s"mean=$mean")
    assert(math.abs(varr - n * p * (1 - p)) < 0.3, s"var=$varr")
  }

  test("binomial mean matches np — large-np exact path") {
    val rng = new Rng(9)
    val n = 2000; val p = 0.4 // np large -> trial loop
    val draws = Vector.fill(3000)(rng.binomial(n, p).toDouble)
    val mean = draws.sum / draws.size
    assert(math.abs(mean - n * p) < 2.5, s"mean=$mean")
  }

  test("binomial symmetric path p>0.5 has mean np") {
    val rng = new Rng(10)
    val n = 100; val p = 0.93
    val draws = Vector.fill(10000)(rng.binomial(n, p).toDouble)
    val mean = draws.sum / draws.size
    assert(math.abs(mean - n * p) < 0.2, s"mean=$mean")
  }

  test("hypergeometric stays within feasible bounds") {
    val rng = new Rng(11)
    (1 to 2000).foreach { _ =>
      val x = rng.hypergeometric(10, 7, 8)
      assert(x >= math.max(0, 10 - 8) && x <= 7, s"x=$x")
    }
  }

  test("hypergeometric mean is k*a/(a+b)") {
    val rng = new Rng(12)
    val draws = Vector.fill(20000)(rng.hypergeometric(20, 30, 70).toDouble)
    val mean = draws.sum / draws.size
    assert(math.abs(mean - 20.0 * 30 / 100) < 0.1, s"mean=$mean")
  }

  test("hypergeometric edge: k=0") { assert(new Rng(13).hypergeometric(0, 5, 5) == 0) }
  test("hypergeometric edge: draw everything") { assert(new Rng(14).hypergeometric(10, 4, 6) == 4) }
  test("hypergeometric rejects k > a+b") {
    intercept[IllegalArgumentException](new Rng(15).hypergeometric(11, 5, 5))
  }

  test("multivariate hypergeometric counts sum to m and respect stratum sizes") {
    val rng = new Rng(16)
    val sizes = Vector(10L, 0L, 25L, 5L)
    (1 to 500).foreach { _ =>
      val c = rng.multivariateHypergeometric(17, sizes)
      assert(c.sum == 17)
      c.zip(sizes).foreach { case (ci, si) => assert(ci >= 0 && ci <= si) }
    }
  }

  test("multivariate hypergeometric marginal means are m*size_i/total") {
    val rng = new Rng(17)
    val sizes = Vector(100L, 300L, 600L)
    val reps = 5000
    val sums = new Array[Double](3)
    (1 to reps).foreach { _ =>
      val c = rng.multivariateHypergeometric(50, sizes)
      c.indices.foreach(i => sums(i) += c(i))
    }
    sizes.indices.foreach { i =>
      val mean = sums(i) / reps
      val expect = 50.0 * sizes(i) / 1000.0
      assert(math.abs(mean - expect) < 0.5, s"stratum $i mean=$mean expect=$expect")
    }
  }

  test("multivariate hypergeometric m=0 and m=total") {
    val rng = new Rng(18)
    assert(rng.multivariateHypergeometric(0, Vector(3L, 4L)).sum == 0)
    assert(rng.multivariateHypergeometric(7, Vector(3L, 4L)) == Vector(3L, 4L))
  }

  test("stochasticRound returns floor or ceil with mean x") {
    val rng = new Rng(19)
    val x = 3.6
    val draws = Vector.fill(20000)(rng.stochasticRound(x))
    assert(draws.forall(d => d == 3L || d == 4L))
    val mean = draws.map(_.toDouble).sum / draws.size
    assert(math.abs(mean - x) < 0.02, s"mean=$mean")
  }

  test("stochasticRound on integers is exact") {
    val rng = new Rng(20)
    (0 to 50).foreach(i => assert(rng.stochasticRound(i.toDouble) == i.toLong))
  }

  test("sampleWithoutReplacement returns min(m,|a|) distinct elements of a") {
    val rng = new Rng(21)
    val a = (1 to 30).toVector
    val s = rng.sampleWithoutReplacement(a, 12)
    assert(s.size == 12)
    assert(s.distinct.size == 12)
    assert(s.forall(a.contains))
    assert(rng.sampleWithoutReplacement(a, 100).size == 30)
    assert(rng.sampleWithoutReplacement(a, 0).isEmpty)
    assert(rng.sampleWithoutReplacement(Vector.empty[Int], 5).isEmpty)
  }

  test("sampleWithoutReplacement is uniform over elements") {
    val rng = new Rng(22)
    val a = (0 until 10).toVector
    val counts = new Array[Int](10)
    val reps = 20000
    (1 to reps).foreach(_ => rng.sampleWithoutReplacement(a, 3).foreach(counts(_) += 1))
    counts.foreach { c =>
      val p = c.toDouble / reps
      assert(math.abs(p - 0.3) < 0.02, s"p=$p")
    }
  }

  test("sampleWithoutReplacement returns pinned items on the dense path") {
    // Captured from the copy-and-shuffle implementation: on the dense path
    // (3m >= |a|) the index-array version makes the same nextInt calls, so it
    // must return the same items in the same order.
    def draw(seed: Long, m: Int) = new Rng(seed).sampleWithoutReplacement((100 until 130).toVector, m)
    assert(draw(31, 12) == Vector(112, 118, 106, 120, 125, 129, 107, 117, 126, 121, 109, 127))
    assert(draw(32, 30) == Vector(117, 121, 111, 113, 103, 127, 122, 125, 112, 128, 105, 109, 116, 108, 106,
      123, 118, 104, 129, 124, 115, 100, 114, 102, 126, 110, 107, 119, 101, 120))
    assert(draw(33, 100) == Vector(103, 117, 129, 108, 112, 128, 113, 109, 104, 101, 118, 124, 122, 100, 106,
      121, 123, 107, 111, 127, 126, 120, 110, 119, 114, 125, 102, 115, 105, 116)) // m > |a|
    val big = new Rng(34).sampleWithoutReplacement((0 until 1000).map(_ * 3).toVector, 400)
    assert(big.size == 400)
    assert(big.take(12) == Vector(378, 747, 153, 1812, 2619, 981, 2580, 2148, 603, 2079, 2895, 1278))
    assert(MurmurHash3.seqHash(big) == 1957227176)
    // Consecutive draws leave the generator in the same state.
    val r = new Rng(35)
    assert(r.sampleWithoutReplacement(Vector("a", "b", "c", "d", "e", "f"), 4) == Vector("c", "e", "d", "a"))
    assert(r.sampleWithoutReplacement((0 until 9).toVector, 3) == Vector(2, 7, 0))
    assert(r.sampleWithoutReplacement((0 until 20).toVector, 7) == Vector(14, 12, 16, 0, 6, 8, 11))
  }

  test("sampleIndices: distinct, in range, both code paths") {
    val rng = new Rng(23)
    val dense = rng.sampleIndices(10, 7) // Fisher-Yates path
    assert(dense.size == 7 && dense.distinct.size == 7 && dense.forall(i => i >= 0 && i < 10))
    val sparse = rng.sampleIndices(10000, 5) // rejection path
    assert(sparse.size == 5 && sparse.distinct.size == 5 && sparse.forall(i => i >= 0 && i < 10000))
    assert(rng.sampleIndices(0, 3).isEmpty)
    assert(rng.sampleIndices(5, 0).isEmpty)
  }

  test("sampleIndices returns pinned sequences on both code paths") {
    // Captured from the boxed Vector/LinkedHashSet implementation: the
    // unboxed paths must make the same nextInt calls in the same order.
    def draw(seed: Long, n: Int, m: Int) = new Rng(seed).sampleIndices(n, m)
    assert(draw(7, 10, 7) == Vector(6, 3, 7, 5, 8, 9, 1)) // dense
    assert(draw(11, 10, 10) == Vector(8, 3, 5, 2, 7, 4, 6, 9, 0, 1)) // dense, k = n
    val big = draw(7, 1000, 400) // dense
    assert(big.take(12) == Vector(236, 786, 593, 267, 356, 559, 88, 222, 362, 594, 850, 960))
    assert(MurmurHash3.seqHash(big) == -1913487482)
    assert(draw(11, 30, 10) == Vector(18, 4, 29, 6, 5, 12, 10, 21, 13, 20)) // sparse
    val collide = draw(7, 300, 99) // sparse with many rejected repeats
    assert(collide.take(12) == Vector(136, 164, 285, 244, 280, 154, 268, 149, 150, 234, 0, 12))
    assert(MurmurHash3.seqHash(collide) == 1827550111)
    assert(draw(7, 100000, 50) == Vector(
      64236, 49164, 29485, 78044, 89380, 66254, 87968, 96649, 98850, 39534,
      31200, 13712, 78708, 88911, 74495, 89662, 12961, 50738, 71307, 38279,
      57842, 43924, 58883, 77051, 98718, 62004, 5239, 37400, 66576, 49811,
      123, 78073, 58679, 63891, 34535, 16492, 91818, 17506, 45646, 23234,
      46325, 48880, 7673, 78047, 59333, 74395, 8512, 58289, 19276, 20652)) // sparse
    // Consecutive draws leave the generator in the same state.
    val r = new Rng(99)
    assert(r.sampleIndices(20, 8) == Vector(7, 2, 17, 9, 1, 0, 18, 14))
    assert(r.sampleIndices(5000, 6) == Vector(720, 4599, 868, 4739, 1981, 1159))
    assert(r.sampleIndices(12, 4) == Vector(2, 4, 10, 9))
  }

  test("split produces decorrelated streams") {
    val base = new Rng(24)
    val a = base.split(1); val b = base.split(2)
    val xs = Vector.fill(2000)(a.uniform())
    val ys = Vector.fill(2000)(b.uniform())
    val mx = xs.sum / xs.size; val my = ys.sum / ys.size
    val cov = xs.zip(ys).map { case (x, y) => (x - mx) * (y - my) }.sum / xs.size
    assert(math.abs(cov) < 0.01, s"cov=$cov")
    assert(xs != ys)
  }

  test("fixed seed reproduces identical draws") {
    val a = new Rng(99); val b = new Rng(99)
    (1 to 100).foreach(_ => assert(a.uniform() == b.uniform()))
    assert(a.binomial(50, 0.3) == b.binomial(50, 0.3))
    assert(a.hypergeometric(10, 5, 5) == b.hypergeometric(10, 5, 5))
  }
}
