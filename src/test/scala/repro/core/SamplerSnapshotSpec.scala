package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.immutable.ArraySeq

/** Every sampler's `sample` (and `LatentSample`'s `fullItems`/`realize`) is
  * an immutable snapshot: one array-backed type for all samplers, and later
  * batches never change a snapshot already handed out.
  */
class SamplerSnapshotSpec extends AnyFunSuite {

  private def batch(t: Int, size: Int): IndexedSeq[Item[Int]] =
    (0 until size).map(i => Item(t * 100000L + i, t, i))

  private val samplers: Seq[() => Sampler[Int]] = Seq(
    () => new RTBS[Int](50, 0.1, 1),
    () => new TTBS[Int](50, 0.1, 40, 2),
    () => new BTBS[Int](0.1, 3),
    () => new BRS[Int](50, 4),
    () => new BChao[Int](50, 0.1, 5),
    () => new SlidingWindow[Int](50),
  )

  samplers.foreach { mk =>
    val name = mk().name
    test(s"$name: sample is an ArraySeq that later batches leave unchanged") {
      val s = mk()
      (1 to 10).foreach(t => s.processBatch(batch(t, 40)))
      val snap = s.sample
      val ids = snap.map(_.id).toVector
      assert(snap.getClass == classOf[ArraySeq.ofRef[_]], snap.getClass.getName)
      (11 to 20).foreach(t => s.processBatch(batch(t, 40)))
      assert(s.sample.map(_.id).toVector != ids, "the batches must change the sample")
      assert(snap.map(_.id).toVector == ids)
    }
  }

  test("LatentSample: fullItems and realize are snapshots across every update") {
    val ls = new LatentSample[Int](new Rng(6))
    ls.appendFull(batch(1, 30))
    val full = ls.fullItems
    val realized = ls.realize()
    val ids = full.map(_.id).toVector
    assert(full.getClass == classOf[ArraySeq.ofRef[_]] && realized.getClass == full.getClass)
    ls.replaceRandomFull(batch(2, 30), 10) // overwrites slots in place
    ls.downsampleTo(12.5) // deletes by moving the last items into holes
    ls.appendFull(batch(3, 5))
    assert(ls.fullItems.map(_.id).toVector != ids)
    assert(full.map(_.id).toVector == ids && realized.map(_.id).toVector == ids)
  }
}
