package repro.eval

/** The one timing loop of the latency tables: one untimed warm-up pass, then
  * `Passes` timed passes, reporting the median. A single disturbed pass (a
  * GC pause, a busy neighbour) cannot set the figure on its own. Gates that
  * compare two configurations time them against each other in pairs
  * ([[Measure.ratio]]).
  */
object Measure {

  /** Timed passes per figure. */
  final val Passes = 3

  /** Median of `xs`; the mean of the two middle values when their count is even. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "no values")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Median wall nanoseconds per op over `Passes` timed passes of `op(0)`, …,
    * `op(n - 1)`, after one untimed pass. The ops' results are summed into a
    * volatile field, so the JIT cannot drop the loop.
    */
  def nsPerOp(n: Int)(op: Int => Long): Double = {
    require(n > 0, "no ops to time")
    pass(n, op)
    median(Seq.fill(Passes)(pass(n, op).toDouble / n))
  }

  /** Pairs of timed passes per [[ratio]]. */
  final val Pairs = 10

  /** The median over `Pairs` pairs of the ratio of a pass of `a` to a pass
    * of `b`, each pass running ops 0 … n − 1. After one untimed pass of
    * each, the passes run in ABBA order, so drift in the machine's speed
    * weighs on both sides alike.
    */
  def ratio(n: Int)(a: Int => Long, b: Int => Long): Double = {
    require(n > 0, "no ops to time")
    pass(n, a)
    pass(n, b)
    median((0 until Pairs).map { i =>
      if (i % 2 == 0) { val ta = pass(n, a); ta.toDouble / pass(n, b) }
      else { val tb = pass(n, b); pass(n, a).toDouble / tb }
    })
  }

  /** Wall nanoseconds of one pass of `op(0)`, …, `op(n - 1)`. */
  private def pass(n: Int, op: Int => Long): Long = {
    val t0 = System.nanoTime()
    var sum = 0L
    var i = 0
    while (i < n) { sum += op(i); i += 1 }
    val ns = System.nanoTime() - t0
    sink += sum
    ns
  }

  @volatile private var sink = 0L
}
