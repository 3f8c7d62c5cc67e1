package repro.core

import org.scalatest.funsuite.AnyFunSuite

class HuTuckerSpec extends AnyFunSuite {

  /** Exhaustive prefix-freeness over all code pairs. */
  private def assertPrefixFree(codes: Array[HuTucker.Code]): Unit =
    for (i <- codes.indices; j <- codes.indices if i != j) {
      val a = codes(i); val b = codes(j)
      if (a.len <= b.len)
        assert(a.bits != (b.bits >>> (b.len - a.len)),
          s"code $i (${a.bitString}) is a prefix of code $j (${b.bitString})")
    }

  private def assertMonotone(codes: Array[HuTucker.Code]): Unit =
    for (i <- 1 until codes.length) {
      val a = codes(i - 1); val b = codes(i)
      val m = math.min(a.len, b.len)
      assert((a.bits >>> (a.len - m)) < (b.bits >>> (b.len - m)),
        s"codes not increasing at $i: ${a.bitString} vs ${b.bitString}")
    }

  private def cost(w: Array[Double], lens: Array[Int]): Double =
    w.zip(lens).map { case (wi, li) => wi * li }.sum

  test("two equal weights get 1-bit codes") {
    val c = HuTucker.assign(Array(1.0, 1.0))
    assert(c.map(_.len).toSeq == Seq(1, 1))
    assert(c(0).bits == 0 && c(1).bits == 1)
  }

  test("uniform power-of-two weights give fixed-length codes") {
    val c = HuTucker.assign(Array.fill(8)(1.0))
    assert(c.forall(_.len == 3))
    assert(c.map(_.bits).toSeq == (0L until 8L))
  }

  test("skewed weights give the heavy symbol a short code") {
    val c = HuTucker.assign(Array(100.0, 1.0, 1.0, 1.0))
    assert(c(0).len < c(2).len)
  }

  test("single entry gets a 1-bit code") {
    val c = HuTucker.assign(Array(5.0))
    assert(c.length == 1 && c(0).len == 1)
  }

  test("classic Hu-Tucker example keeps alphabetic order despite skew") {
    // weights chosen so Huffman would reorder but Hu-Tucker cannot
    val w = Array(3.0, 1.0, 1.0, 3.0)
    val c = HuTucker.assign(w)
    assertPrefixFree(c); assertMonotone(c)
    assert(cost(w, c.map(_.len)) == HuTucker.optimalCostDp(w))
  }

  test("Kraft equality holds (code is a full binary tree)") {
    val c = HuTucker.assign(Array(5.0, 1.0, 2.0, 7.0, 1.0, 1.0, 3.0))
    val kraft = c.map(x => math.pow(2.0, -x.len)).sum
    assert(math.abs(kraft - 1.0) < 1e-12)
  }

  test("prefix-free and monotone on a 256-symbol skewed alphabet") {
    val rnd = new scala.util.Random(1)
    val w = Array.fill(256)(math.pow(rnd.nextDouble() * 10 + 0.1, 3))
    val c = HuTucker.assign(w)
    assertPrefixFree(c); assertMonotone(c)
  }

  /** Weight shapes that make the code assigner's combined nodes travel far. */
  private def shaped(n: Int): Seq[(String, Array[Double])] = Seq(
    "ascending"  -> Array.tabulate(n)(i => i + 1.0),
    "descending" -> Array.tabulate(n)(i => (n - i).toDouble),
    "valley"     -> Array.tabulate(n)(i => math.abs(i - n / 2) + 1.0),
    "peak"       -> Array.tabulate(n)(i => n / 2 - math.abs(i - n / 2) + 1.0),
  )

  /** Smoothed hit counts as `CodeAssign.huTucker` makes them: most entries
    * unseen, so many equal small weights, plus a few spikes.
    */
  private def tieHeavy(n: Int, rnd: scala.util.Random): Array[Double] = {
    val hits = Array.fill(n)(if (rnd.nextInt(10) == 0) rnd.nextInt(3) + 1L else 0L)
    for (_ <- 0 until 1 + n / 20) hits(rnd.nextInt(n)) += rnd.nextInt(1000)
    val delta = math.max(1e-6, 0.05 * hits.sum.toDouble / n)
    hits.map(_ + delta)
  }

  test("optimal cost matches DP oracle on random inputs (n ≤ 60)") {
    val random = for (n <- Seq(2, 3, 4, 5, 7, 10, 13, 21, 34, 60); trial <- 0 until 5) yield {
      val rnd = new scala.util.Random(n * 100 + trial)
      s"random n=$n trial=$trial" -> Array.fill(n)(rnd.nextInt(50) + 1.0)
    }
    val other = for (n <- Seq(2, 3, 8, 31, 64, 100, 200); trial <- 0 until 3) yield {
      val rnd = new scala.util.Random(7000 + n * 10 + trial)
      Seq(
        s"tie-heavy n=$n trial=$trial"   -> tieHeavy(n, rnd),
        s"non-integer n=$n trial=$trial" -> Array.fill(n)(math.pow(rnd.nextDouble() * 10 + 0.01, 2)),
      ) ++ (if (trial == 0) shaped(n).map { case (k, w) => s"$k n=$n" -> w } else Nil)
    }
    // Hit counts plus a non-integer smoothing share whose rounded sums once
    // gave an invalid level sequence (found by random search).
    val roundedSums = "rounded sums n=77" -> Array(30, 6, 1, 0, 0, 0, 0, 0, 0, 2, 7, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 4, 3, 0, 0, 0, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 1, 0, 0, 0, 0, 0, 2, 0,
      0, 0, 14, 0, 0, 0, 5, 7, 0, 0, 0, 3, 0, 1, 0, 3, 1, 0, 0, 3, 18, 0, 0, 0, 0, 0, 0, 2, 0, 0)
      .map(_ + 0.11206596141879278)
    for ((name, w) <- random ++ other.flatten :+ roundedSums) {
      val lens = HuTucker.codeLengths(w)
      val got = cost(w, lens)
      val want = HuTucker.optimalCostDp(w)
      assert(math.abs(got - want) <= 1e-12 * want, s"$name: got $got want $want (w=${w.toSeq})")
      val codes = HuTucker.codesFromLengths(lens)
      assertPrefixFree(codes); assertMonotone(codes)
    }
  }

  test("monotone, valley and tie-heavy weights at n=65,536 give valid codes within 10 s") {
    val n = 65536
    val inputs = shaped(n).filter(_._1 != "peak") ++
      (0 until 3).map(seed => s"tie-heavy seed=$seed" -> tieHeavy(n, new scala.util.Random(seed)))
    for ((name, w) <- inputs) {
      val t0 = System.nanoTime()
      val lens = HuTucker.codeLengths(w)
      val secs = (System.nanoTime() - t0) / 1e9
      assert(secs < 10.0, s"$name took $secs s")
      HuTucker.codesFromLengths(lens) // must not throw
      val kraft = lens.map(l => math.pow(2.0, -l)).sum
      assert(math.abs(kraft - 1.0) < 1e-9, s"$name: Kraft sum $kraft")
    }
  }

  test("randomized: 200 weight vectors yield valid prefix-free monotone codes") {
    val rnd = new scala.util.Random(2024)
    for (_ <- 0 until 200) {
      val n = 2 + rnd.nextInt(119)
      val w = Array.fill(n)(rnd.nextInt(1000) + 1.0)
      val codes = HuTucker.assign(w)
      assertMonotone(codes)
      val kraft = codes.map(x => math.pow(2.0, -x.len)).sum
      assert(math.abs(kraft - 1.0) < 1e-9)
    }
  }

  test("ties everywhere (all-equal weights) still valid up to n=1000") {
    for (n <- Seq(3, 17, 100, 1000)) {
      val codes = HuTucker.assign(Array.fill(n)(1.0))
      assertMonotone(codes)
      val kraft = codes.map(x => math.pow(2.0, -x.len)).sum
      assert(math.abs(kraft - 1.0) < 1e-9, s"n=$n")
    }
  }

  test("zero-smoothed counts: one hot symbol among 64K entries stays bounded") {
    val w = Array.fill(65536)(1.0)
    w(12345) = 1e7
    val lens = HuTucker.codeLengths(w)
    assert(lens(12345) <= 4)
    assert(lens.max <= 40, s"max len ${lens.max}")
    HuTucker.codesFromLengths(lens) // must not throw
  }

  test("codesFromLengths rejects an invalid level sequence") {
    intercept[IllegalArgumentException] { HuTucker.codesFromLengths(Array(2, 1, 2)) }
  }

  test("optimalCostDp sanity: balanced beats skewed assignment for uniform weights") {
    assert(HuTucker.optimalCostDp(Array(1.0, 1.0, 1.0, 1.0)) == 8.0)
  }
}
