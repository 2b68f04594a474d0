package perfbench

import repro.core.Rng

/** Batch sizes for the workloads whose total weight W should swing around the
  * sample bound n, so that every Algorithm-2 branch fires, in the same numbers
  * on every seed.
  *
  * Each size is x or 2b − x for x ~ Uniform{0..2b}, b = n(1−e^{−λ}) (the
  * equilibrium rate: W has mean n when sizes have mean b). The larger of the
  * two is taken while W should rise, the smaller while it should fall; W is
  * steered to n(1 + Swing) for `Above` batches of every cycle and to
  * n(1 − Swing) for the `Below` batches after them, so it crosses n twice per
  * cycle. Left at that, the branch mix of a cycle still moves with the draws
  * (12 to 19 saturated batches of 22), and with it every timing, since a
  * saturated batch costs two to three times an unsaturated one. So a cycle is
  * drawn again until its branch mix is the usual one (`Mix`) and it ends with
  * W in `EndBand`·n, where the next cycle starts; about one draw in seven is
  * kept. The first batch holds `first(n)` items, inside that band, so the
  * first cycle starts like every other.
  */
object Arrivals {
  val Above = 16
  val Below = 6
  val Cycle: Int = Above + Below
  val Swing = 0.1
  /** Batches per cycle in the branches saturated, unsaturated, overshoot and
    * undershoot (see `Branch`).
    */
  val Mix: Seq[Int] = Seq(15, 5, 1, 1)
  val EndBand: (Double, Double) = (0.90, 0.95)
  private val MaxDraws = 100000

  /** Size of the first batch. */
  def first(n: Int): Int = math.round(0.93 * n).toInt

  /** `count` sizes following a first batch of `first(n)` items. */
  def sizes(rng: Rng, count: Int, n: Int, lambda: Double): Vector[Int] = {
    val b = math.round(n * (1 - math.exp(-lambda))).toInt
    val decay = math.exp(-lambda)
    val branches = Seq("saturated", "unsaturated", "overshoot", "undershoot")

    /** One cycle from W = w: its sizes, branch counts and final W. */
    def cycle(w0: Double): (Vector[Int], Seq[Int], Double) = {
      var w = w0
      val counts = Array.fill(branches.size)(0)
      val sizes = Vector.tabulate(Cycle) { t =>
        val x = rng.nextInt(2 * b + 1)
        val target = if (t < Above) n * (1 + Swing) else n * (1 - Swing)
        val size = if (w * decay + b < target) math.max(x, 2 * b - x) else math.min(x, 2 * b - x)
        val before = w
        w = w * decay + size
        counts(branches.indexOf(Branch.of(before, w, n))) += 1
        size
      }
      (sizes, counts.toSeq, w)
    }

    var w = first(n).toDouble
    val out = Vector.newBuilder[Int]
    (0 until (count + Cycle - 1) / Cycle).foreach { _ =>
      val draws = Iterator.continually(cycle(w)).take(MaxDraws)
      val (sizes, _, end) = draws.find { case (_, counts, end) =>
        counts == Mix && end >= EndBand._1 * n && end <= EndBand._2 * n
      }.getOrElse(sys.error(s"no cycle with branch mix $Mix in $MaxDraws draws"))
      out ++= sizes
      w = end
    }
    out.result().take(count)
  }
}
