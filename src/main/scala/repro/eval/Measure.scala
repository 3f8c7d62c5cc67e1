package repro.eval

/** The one timing loop of the latency tables: one untimed warm-up pass, then
  * `Passes` timed passes, reporting the median. A single disturbed pass (a
  * GC pause, a busy neighbour) cannot set the figure on its own.
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
    def pass(): Long = {
      var sum = 0L
      var i = 0
      while (i < n) { sum += op(i); i += 1 }
      sum
    }
    sink += pass()
    median(Seq.fill(Passes) {
      val t0 = System.nanoTime()
      val sum = pass()
      val ns = System.nanoTime() - t0
      sink += sum
      ns.toDouble / n
    })
  }

  @volatile private var sink = 0L
}
