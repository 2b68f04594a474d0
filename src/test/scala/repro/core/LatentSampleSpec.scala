package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.ArrayBuffer
import scala.util.hashing.MurmurHash3

/** Tests for the latent fractional sample and Algorithm 3 (downsampling),
  * including a Monte-Carlo check of Theorem 4.1.
  */
class LatentSampleSpec extends AnyFunSuite {

  private def mkItems(k: Int, batch: Int = 0): IndexedSeq[Item[Int]] =
    (0 until k).map(i => Item(i.toLong + batch * 1000L, batch, i))

  private def fresh(c: Double, seed: Long): LatentSample[Int] = {
    // Build a latent sample of weight c: ⌊c⌋ full items + optionally downsample
    // from ⌈c⌉ items to c to create a partial item.
    val rng = new Rng(seed)
    val ls = new LatentSample[Int](rng)
    val k = math.ceil(c).toInt
    ls.appendFull(mkItems(k))
    if (c < k) ls.downsampleTo(c)
    ls
  }

  test("empty sample has zero weight and footprint") {
    val ls = new LatentSample[Int](new Rng(1))
    assert(ls.C == 0.0 && ls.footprint == 0 && ls.realize().isEmpty)
  }

  test("appendFull adds items as full and raises C") {
    val ls = new LatentSample[Int](new Rng(2))
    ls.appendFull(mkItems(5))
    assert(ls.C == 5.0)
    assert(ls.fullItems.size == 5)
    assert(ls.partialItem.isEmpty)
    assert(ls.realize().size == 5)
  }

  test("invariant |A| = floor(C) and partial iff frac(C)>0, across random transitions") {
    val rng = new Rng(3)
    (1 to 300).foreach { trial =>
      val ls = new LatentSample[Int](new Rng(trial))
      ls.appendFull(mkItems(1 + rng.nextInt(20)))
      var c = ls.C
      (1 to 10).foreach { _ =>
        val target = rng.uniform() * c
        ls.downsampleTo(target)
        c = ls.C
        val fl = math.floor(LatentSample.snap(c)).toInt
        assert(ls.fullItems.size == fl, s"|A|=${ls.fullItems.size} C=$c")
        val fr = LatentSample.frac(LatentSample.snap(c))
        if (fr > LatentSample.Eps) assert(ls.partialItem.isDefined, s"no partial at C=$c")
        else assert(ls.partialItem.isEmpty, s"spurious partial at C=$c")
        if (c <= 0) assert(ls.footprint == 0)
        // refill so the loop can continue
        if (c < 1) { ls.clear(); ls.appendFull(mkItems(1 + rng.nextInt(20))); c = ls.C }
      }
    }
  }

  test("downsample to same weight is a no-op") {
    val ls = fresh(7.0, 4)
    val before = ls.fullItems
    ls.downsampleTo(7.0)
    assert(ls.fullItems == before && ls.C == 7.0)
  }

  test("downsample to zero clears the sample") {
    val ls = fresh(5.5, 5)
    ls.downsampleTo(0.0)
    assert(ls.C == 0.0 && ls.footprint == 0)
  }

  test("downsample rejects targets above C") {
    val ls = fresh(4.0, 6)
    intercept[IllegalArgumentException](ls.downsampleTo(4.5))
  }

  test("downsample integral -> fractional creates exactly one partial") {
    val ls = fresh(6.0, 7)
    ls.downsampleTo(3.4)
    assert(ls.fullItems.size == 3 && ls.partialItem.isDefined && math.abs(ls.C - 3.4) < 1e-12)
  }

  test("downsample fractional -> integral removes the partial") {
    val ls = fresh(5.7, 8)
    ls.downsampleTo(3.0)
    assert(ls.fullItems.size == 3 && ls.partialItem.isEmpty && ls.C == 3.0)
  }

  test("downsample within same floor (no deletions) keeps all items present") {
    val ls = fresh(4.7, 9)
    val ids = (ls.fullItems ++ ls.partialItem).map(_.id).toSet
    ls.downsampleTo(4.2)
    val after = (ls.fullItems ++ ls.partialItem).map(_.id).toSet
    assert(after.subsetOf(ids))
    assert(ls.fullItems.size == 4 && ls.partialItem.isDefined)
  }

  test("downsample below 1 leaves only a partial item") {
    val ls = fresh(6.0, 10)
    ls.downsampleTo(0.3)
    assert(ls.fullItems.isEmpty && ls.partialItem.isDefined && math.abs(ls.C - 0.3) < 1e-12)
  }

  test("realize has expected size C (stochastic)") {
    val ls = fresh(3.6, 11)
    val reps = 20000
    val mean = (1 to reps).map(_ => ls.realize().size).sum.toDouble / reps
    assert(math.abs(mean - 3.6) < 0.03, s"mean=$mean")
    (1 to 100).foreach { _ =>
      val s = ls.realize().size
      assert(s == 3 || s == 4)
    }
  }

  test("footprint never exceeds floor(C)+1") {
    val rng = new Rng(12)
    (1 to 100).foreach { trial =>
      val ls = fresh(2 + rng.uniform() * 15, 100 + trial)
      assert(ls.footprint <= math.floor(ls.C).toInt + 1)
    }
  }

  /** Theorem 4.1 Monte Carlo: downsampling C -> C' scales every item's
    * inclusion probability by exactly C'/C.
    */
  private def checkScaling(c: Double, cPrime: Double, reps: Int = 40000, tol: Double = 0.015): Unit = {
    val k = math.ceil(c).toInt
    val counts = scala.collection.mutable.Map.empty[Long, Int].withDefaultValue(0)
    // Each item's pre-downsampling inclusion prob: full -> 1, partial -> frac(c).
    // We create the latent sample deterministically: items 0..⌊c⌋-1 full, item ⌊c⌋ partial.
    (1 to reps).foreach { rep =>
      val rng = new Rng(rep.toLong * 7919)
      val ls = new LatentSample[Int](rng)
      ls.appendFull(mkItems(k))
      if (c < k) ls.downsampleTo(c) // may pick any item as partial; symmetric
      ls.downsampleTo(cPrime)
      ls.realize().foreach(it => counts(it.id) += 1)
    }
    // By symmetry every original item has pre-inclusion prob c/k; after
    // downsampling it must be (c/k)·(c'/c) = c'/k.
    val expect = cPrime / k
    (0 until k).foreach { id =>
      val p = counts(id.toLong).toDouble / reps
      assert(math.abs(p - expect) < tol, s"item $id: p=$p expect=$expect (c=$c -> $cPrime)")
    }
  }

  test("removeAt: remaining ∪ removed is the original multiset, size exact") {
    // Values repeat (i % 7) so the multiset check is not a set check.
    val cases = for {
      size <- Gen.choose(0, 200)
      k    <- Gen.choose(0, size)
      seed <- Gen.long
    } yield (size, new Rng(seed).sampleIndexArray(size, k))
    val prop = Prop.forAll(cases) { case (size, idx) =>
      val orig = Vector.tabulate(size)(_ % 7)
      val buf = ArrayBuffer.from(orig)
      LatentSample.removeAt(buf, idx)
      val removed = idx.toVector.map(orig)
      buf.size == size - idx.length && (buf.toVector ++ removed).sorted == orig.sorted
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res.status.toString)
  }

  test("removeAt edge cases: empty set, last index, every index") {
    val buf = ArrayBuffer.from(0 until 6)
    LatentSample.removeAt(buf, Array.emptyIntArray)
    assert(buf == ArrayBuffer(0, 1, 2, 3, 4, 5))
    LatentSample.removeAt(buf, Array(5))
    assert(buf == ArrayBuffer(0, 1, 2, 3, 4))
    LatentSample.removeAt(buf, Array(1, 4))
    assert(buf.sorted == ArrayBuffer(0, 2, 3))
    LatentSample.removeAt(buf, Array(2, 0, 1))
    assert(buf.isEmpty)
    val idx = Array(3, 0, 2)
    LatentSample.removeAt(ArrayBuffer.from(0 until 4), idx)
    assert(idx.toSeq == Seq(3, 0, 2), "the index array is left as given")
  }

  test("replaceRandomFull overwrites a pinned item set for a fixed seed") {
    // The set the tail-shifting delete removed for this seed: the in-place
    // swap draws its victims with the same first index draw, so it must
    // overwrite exactly these items.
    val ls = new LatentSample[Int](new Rng(5))
    ls.appendFull(mkItems(1000))
    ls.replaceRandomFull(mkItems(300, batch = 7), 300)
    val removed = (0L until 1000L).toSet -- ls.fullItems.map(_.id)
    assert(ls.C == 1000.0 && ls.fullItems.size == 1000 && removed.size == 300)
    assert(ls.fullItems.count(_.batch == 7) == 300)
    assert(removed.toSeq.sorted.take(10) == Seq(3, 5, 6, 8, 17, 22, 27, 28, 30, 35))
    assert(MurmurHash3.unorderedHash(removed) == -427341732)
  }

  test("replaceRandom: input minus the victims plus distinct batch items, size unchanged") {
    // Buffer values repeat (i % 7) so the multiset check is not a set check;
    // batch values are distinct so distinct picks show as distinct items.
    val cases = for {
      size  <- Gen.choose(0, 200)
      bSize <- Gen.choose(0, 200)
      m     <- Gen.choose(0, 250)
      seed  <- Gen.long
    } yield (size, bSize, m, seed)
    val prop = Prop.forAll(cases) { case (size, bSize, m, seed) =>
      val orig = Vector.tabulate(size)(_ % 7)
      val batch = Vector.tabulate(bSize)(1000 + _)
      val buf = ArrayBuffer.from(orig)
      LatentSample.replaceRandom(buf, batch, m, new Rng(seed))
      // Replay the kernel's draws: victim slots first, then batch positions.
      val r = new Rng(seed)
      val victims = r.sampleIndexArray(size, math.min(m, bSize)).toSet
      val chosen = r.sampleIndexArray(bSize, victims.size).toVector.map(batch)
      val k = math.min(m, math.min(size, bSize))
      val kept = orig.indices.filterNot(victims).map(orig)
      buf.size == size && chosen.size == k && chosen.distinct.size == k &&
        buf.sorted == (kept ++ chosen).sorted
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res.status.toString)
  }

  test("Theorem 4.1: integral C to fractional C'")(checkScaling(6.0, 3.3))
  test("Theorem 4.1: fractional C to fractional C', floors differ")(checkScaling(5.8, 2.5))
  test("Theorem 4.1: fractional C to fractional C', same floor")(checkScaling(4.7, 4.2))
  test("Theorem 4.1: down to below one item")(checkScaling(3.5, 0.6))
  test("Theorem 4.1: fractional to integral")(checkScaling(4.6, 2.0))
  test("Theorem 4.1: integral to integral")(checkScaling(5.0, 2.0))
  test("Theorem 4.1: tiny reduction with partial promotion")(checkScaling(2.9, 2.2))
}
