package repro.core

/** Optimal alphabetic (order-preserving) binary prefix codes (§4.2 of the
  * paper). The paper uses Hu-Tucker [Hu & Tucker 1971]; this object computes
  * the same optimal cost with the Garsia–Wachs algorithm [Garsia & Wachs,
  * SIAM J. Comput. 1977], in the array-stack form of Knuth's Algorithm G
  * (TAOCP vol. 3, §6.2.2).
  *
  * Phase 1 builds a (non-alphabetic) tree whose leaf depths are those of an
  * optimal alphabetic tree. Phase 2 rebuilds the canonical alphabetic code
  * level by level from those depths: the codes are prefix-free and strictly
  * increasing, so concatenations preserve source order (§3.1). Where weights
  * tie, several optimal trees exist and any one of them may be returned.
  *
  * Complexity: each combination moves the new node left past every lighter
  * node, which costs the distance moved. On HOPE's weights (smoothed hit
  * counts, far from monotone) that is near-linear: ~0.5–5 ms for 8K–65K
  * entries on a 4-vCPU Xeon VM. The worst case is O(N²), reached by
  * monotone, valley- and peak-shaped weight vectors (0.9–2.0 s at
  * N = 65,536 on the same VM).
  */
object HuTucker {

  /** A right-aligned code word: the low `len` bits of `bits`, MSB first. */
  final case class Code(bits: Long, len: Int) {
    def bitString: String =
      if (len == 0) "" else ((len - 1) to 0 by -1).map(i => (bits >>> i) & 1L).mkString
  }

  /** Optimal alphabetic code for `weights` (must be positive). */
  def assign(weights: Array[Double]): Array[Code] = codesFromLengths(codeLengths(weights))

  /** Phase 1: leaf depths of an optimal alphabetic tree, in alphabet order. */
  def codeLengths(weights: Array[Double]): Array[Int] = {
    val n = weights.length
    require(n > 0, "empty weight vector")
    if (n == 1) return Array(1)

    // Nodes 0..n-1 are the leaves; combinations get ids n, n+1, ...
    val total = 2 * n - 1
    val w     = exactWeights(weights, total)
    val lch   = new Array[Int](total)
    val rch   = new Array[Int](total)
    var free  = n

    // Working sequence s(0 until t) of node ids. It keeps w(s(i)) > w(s(i+2))
    // for every i except at a node just placed, which `settle` re-checks.
    val s = new Array[Int](n)
    var t = 0

    // Combines s(k-1) and s(k), then moves the new node left past every
    // lighter node; returns its position.
    def combine(k: Int): Int = {
      val m = free; free += 1
      w(m) = w(s(k - 1)) + w(s(k)); lch(m) = s(k - 1); rch(m) = s(k)
      System.arraycopy(s, k + 1, s, k, t - k - 1)
      t -= 1
      var j = k - 1
      while (j > 0 && w(s(j - 1)) < w(m)) { s(j) = s(j - 1); j -= 1 }
      s(j) = m
      j
    }

    // Restores the invariant after a node was placed at `j0`: while the node
    // two places left of a placed node is no heavier, combine that node with
    // its right neighbour. Positions are kept as distances from the end,
    // which combinations to their left do not change.
    val pending = new Array[Int](n)
    def settle(j0: Int): Unit = {
      var p = 0
      pending(p) = t - j0; p += 1
      while (p > 0) {
        val j = t - pending(p - 1)
        if (j >= 2 && w(s(j - 2)) <= w(s(j))) {
          val placed = combine(j - 1) // shortens the sequence: read `t` after it
          pending(p) = t - placed; p += 1
        } else p -= 1
      }
    }

    var i = 0
    while (i < n) {
      s(t) = i; t += 1
      while (t >= 3 && w(s(t - 3)) <= w(s(t - 1))) settle(combine(t - 2))
      i += 1
    }
    while (t > 1) settle(combine(t - 1))

    // Leaf depths via iterative DFS from the root.
    val depth = new Array[Int](total)
    val stack = new Array[Int](total)
    var top = 0
    stack(top) = free - 1; top += 1
    while (top > 0) {
      top -= 1
      val v = stack(top)
      if (v >= n) {
        depth(lch(v)) = depth(v) + 1; depth(rch(v)) = depth(v) + 1
        stack(top) = lch(v); top += 1
        stack(top) = rch(v); top += 1
      }
    }
    java.util.Arrays.copyOf(depth, n)
  }

  /** `weights` as integers in the first `n` of `size` slots, scaled by one
    * power of two so that their sum fits in 62 bits. Phase 1 needs exact
    * sums: a combined weight rounded in floating point can order two nodes
    * against their true sums and so yield depths that are no alphabetic
    * level sequence. HOPE's weights, hit counts plus a non-integer smoothing
    * share, did so on a 3-Grams sample of 8,035 entries. Scaling moves each
    * weight by at most 2^-61 of the total, so the optimal cost is unchanged
    * to double precision.
    */
  private def exactWeights(weights: Array[Double], size: Int): Array[Long] = {
    val sum = weights.sum
    require(sum > 0 && sum < Double.PositiveInfinity && weights.forall(_ > 0),
      s"weights must be positive and finite (sum $sum)")
    val shift = 61 - Math.getExponent(sum) // sum < 2^(exponent + 1)
    val w = new Array[Long](size)
    var i = 0
    while (i < weights.length) { w(i) = math.max(1L, math.round(Math.scalb(weights(i), shift))); i += 1 }
    w
  }

  /** Phase 2: canonical alphabetic codes from a valid level sequence. */
  def codesFromLengths(lens: Array[Int]): Array[Code] = {
    val n = lens.length
    val out = new Array[Code](n)
    require(lens(0) <= 62, s"code length ${lens(0)} exceeds 62 bits")
    out(0) = Code(0L, lens(0))
    var c = 0L
    var prevLen = lens(0)
    var i = 1
    while (i < n) {
      val l = lens(i)
      require(l <= 62, s"code length $l exceeds 62 bits")
      c += 1
      if (l >= prevLen) c <<= (l - prevLen) else c >>= (prevLen - l)
      require(l == 0 || c < (1L << l), s"invalid alphabetic level sequence at index $i")
      out(i) = Code(c, l)
      prevLen = l
      i += 1
    }
    validateAdjacent(out)
    out
  }

  /** Cheap O(n) sanity check: adjacent codes strictly increase as bitstrings
    * and neither is a prefix of the other. (Full prefix-freeness is checked
    * exhaustively in tests.)
    */
  private def validateAdjacent(codes: Array[Code]): Unit = {
    var i = 1
    while (i < codes.length) {
      val a = codes(i - 1); val b = codes(i)
      val m = math.min(a.len, b.len)
      val ah = a.bits >>> (a.len - m)
      val bh = b.bits >>> (b.len - m)
      require(ah < bh, s"codes not strictly increasing/prefix-free at $i: ${a.bitString} vs ${b.bitString}")
      i += 1
    }
  }

  /** O(n³)-ish DP for the optimal alphabetic tree cost — test oracle only. */
  def optimalCostDp(weights: Array[Double]): Double = {
    val n = weights.length
    if (n == 1) return weights(0)
    val pre = new Array[Double](n + 1)
    for (i <- 0 until n) pre(i + 1) = pre(i) + weights(i)
    val e = Array.fill(n, n)(0.0)
    for (len <- 2 to n; i <- 0 to n - len) {
      val j = i + len - 1
      var best = Double.MaxValue
      for (k <- i until j) best = math.min(best, e(i)(k) + e(k + 1)(j))
      e(i)(j) = best + (pre(j + 1) - pre(i))
    }
    e(0)(n - 1)
  }
}
