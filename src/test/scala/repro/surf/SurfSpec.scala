package repro.surf

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Bytes

class SurfSpec extends AnyFunSuite {

  private def sortedDistinct(keys: Seq[Array[Byte]]): Array[Array[Byte]] =
    keys.distinctBy(Bytes.hex).sortWith(Bytes.compare(_, _) < 0).toArray

  private def randKeys(n: Int, maxLen: Int, seed: Long, terminated: Boolean = true) = {
    val rnd = new scala.util.Random(seed)
    sortedDistinct(Seq.fill(n) {
      val body = Array.fill(1 + rnd.nextInt(maxLen))((rnd.nextInt(255) + 1).toByte)
      if (terminated) java.util.Arrays.copyOf(body, body.length + 1) else body
    })
  }

  test("no false negatives: every inserted key is found") {
    val keys = randKeys(5000, 10, 1)
    val surf = Surf(keys)
    keys.foreach(k => assert(surf.mayContain(k), Bytes.hex(k)))
  }

  test("no false negatives with 8 suffix bits") {
    val keys = randKeys(5000, 10, 2)
    val surf = Surf(keys, suffixBits = 8)
    keys.foreach(k => assert(surf.mayContain(k), Bytes.hex(k)))
  }

  test("prefix keys supported (terminal entries)") {
    val keys = sortedDistinct(Seq("a", "ab", "abc", "b", "ba").map(Bytes.of))
    val surf = Surf(keys)
    keys.foreach(k => assert(surf.mayContain(k), Bytes.str(k)))
  }

  test("point misses on clearly distinct keys") {
    val keys = sortedDistinct((0 until 500).map(i => Bytes.of(f"com.gmail@user$i%05d|")))
    val surf = Surf(keys, suffixBits = 8)
    // same length, totally different region of the key space
    val miss = (0 until 500).count(i => surf.mayContain(Bytes.of(f"org.other#NAME$i%05d|")))
    assert(miss < 50, s"way too many false positives: $miss/500")
  }

  test("suffix bits reduce the false positive rate (Figure 11 mechanism)") {
    val rnd = new scala.util.Random(5)
    val keys = randKeys(8000, 8, 4)
    val s0 = Surf(keys, suffixBits = 0)
    val s8 = Surf(keys, suffixBits = 8)
    val probes = Array.fill(4000)(Array.fill(1 + rnd.nextInt(8))((rnd.nextInt(255) + 1).toByte))
    val present = keys.map(Bytes.hex).toSet
    val negs = probes.filterNot(p => present(Bytes.hex(p)))
    val fp0 = negs.count(s0.mayContain)
    val fp8 = negs.count(s8.mayContain)
    assert(fp8 <= fp0, s"fp8=$fp8 fp0=$fp0")
  }

  test("range query: no false negatives on [k, k] point ranges") {
    val keys = randKeys(3000, 8, 6)
    val surf = Surf(keys)
    keys.foreach(k => assert(surf.mayContainRange(k, k), Bytes.hex(k)))
  }

  test("range query: no false negatives on wider ranges containing a key") {
    val keys = randKeys(3000, 6, 7)
    val surf = Surf(keys)
    keys.take(1000).foreach { k =>
      val lo = k.clone()
      if ((lo(lo.length - 1) & 0xff) > 0) lo(lo.length - 1) = (lo(lo.length - 1) - 1).toByte
      val hi = k.clone()
      if ((hi(hi.length - 1) & 0xff) < 255) hi(hi.length - 1) = (hi(hi.length - 1) + 1).toByte
      assert(surf.mayContainRange(lo, hi), s"range around ${Bytes.hex(k)}")
      assert(surf.mayContainRange(k, hi))
      assert(surf.mayContainRange(lo, k))
    }
  }

  test("range query: no false negatives on random ranges (binary and byte alphabets, empty key)") {
    val rnd = new scala.util.Random(12)
    for (alphabet <- Seq(2, 256); suffixBits <- Seq(0, 8); round <- 0 until 5) {
      def key(maxLen: Int) = Array.fill(rnd.nextInt(maxLen + 1))(rnd.nextInt(alphabet).toByte)
      val maxLen = if (alphabet == 2) 10 else 4
      val keys = sortedDistinct(Array.emptyByteArray +: Seq.fill(50 + rnd.nextInt(400))(key(maxLen)))
      val surf = Surf(keys, suffixBits)
      val ref = new java.util.TreeSet[Array[Byte]](Bytes.ordering)
      keys.foreach(ref.add)
      for (_ <- 0 until 2000) {
        val a = key(maxLen + 1); val b = key(maxLen + 1)
        val (lo, hi) = if (Bytes.compare(a, b) <= 0) (a, b) else (b, a)
        val first = ref.ceiling(lo)
        if (first != null && Bytes.compare(first, hi) <= 0)
          assert(surf.mayContainRange(lo, hi),
            s"alphabet=$alphabet suffixBits=$suffixBits round=$round [${Bytes.hex(lo)}, ${Bytes.hex(hi)}] holds ${Bytes.hex(first)}")
      }
    }
  }

  test("suffixBits outside 0..8 is rejected") {
    val keys = sortedDistinct(Seq("a", "b").map(Bytes.of))
    for (bits <- Seq(-1, 9))
      assertThrows[IllegalArgumentException](Surf(keys, suffixBits = bits))
  }

  test("unsorted or duplicate keys are rejected, naming the first offending index and both keys") {
    val unsorted = intercept[IllegalArgumentException](Surf(Array("a", "c", "b", "a").map(Bytes.of)))
    assert(unsorted.getMessage.contains("key 2 (62) is not above key 1 (63)"), unsorted.getMessage)
    val duplicate = intercept[IllegalArgumentException](Surf(Array("a", "b", "b").map(Bytes.of)))
    assert(duplicate.getMessage.contains("key 2 (62) is not above key 1 (62)"), duplicate.getMessage)
  }

  test("range query rejects ranges far below the smallest key") {
    val keys = sortedDistinct((0 until 200).map(i => Bytes.of(s"m$i")))
    val surf = Surf(keys)
    assert(!surf.mayContainRange(Bytes.of("a"), Bytes.of("b")))
  }

  test("range query rejects ranges far above the largest key") {
    val keys = sortedDistinct((0 until 200).map(i => Bytes.of(s"m$i")))
    val surf = Surf(keys)
    assert(!surf.mayContainRange(Bytes.of("x"), Bytes.of("z")))
  }

  test("range result is exact on dense integer-like keys vs reference") {
    val keys = sortedDistinct((0 until 1000).map(i => Bytes.of(f"$i%04d")))
    val surf = Surf(keys, suffixBits = 8)
    val set = keys.map(Bytes.str).toSet
    var falsePos = 0
    for (a <- 0 until 1200 by 7; b <- Seq(a + 1, a + 3)) {
      val lo = Bytes.of(f"$a%04d"); val hi = Bytes.of(f"$b%04d")
      val truth = (a to b).exists(v => set(f"$v%04d"))
      val got = surf.mayContainRange(lo, hi)
      if (truth) assert(got, s"false negative on [$a,$b]")
      else if (got) falsePos += 1
    }
    assert(falsePos < 40, s"excessive range false positives: $falsePos")
  }

  test("memory is ~10-20 bits per trie entry (succinct accounting)") {
    val keys = randKeys(20000, 10, 9)
    val surf = Surf(keys)
    val bitsPerEntry = surf.memoryBytes * 8.0 / surf.entryCount
    assert(bitsPerEntry > 8 && bitsPerEntry < 24, s"bits/entry=$bitsPerEntry")
  }

  test("avgLeafDepth reflects shared prefixes") {
    val shared = Surf(sortedDistinct((0 until 2000).map(i => Bytes.of(f"http://www.x.com/$i%06d"))))
    val random = Surf(randKeys(2000, 8, 10))
    assert(shared.avgLeafDepth > random.avgLeafDepth)
  }

  test("single key") {
    val surf = Surf(Array(Bytes.of("only")))
    assert(surf.mayContain(Bytes.of("only")))
    assert(surf.keyCount == 1)
  }

  test("BitVec rank/select consistency") {
    val rnd = new scala.util.Random(77)
    val bv = new BitVec(10000)
    val set = scala.collection.mutable.SortedSet.empty[Int]
    for (_ <- 0 until 3000) { val i = rnd.nextInt(10000); set += i; }
    set.foreach(bv.set)
    bv.build()
    assert(bv.ones == set.size)
    var cum = 0
    for (i <- 0 until 10000) {
      assert(bv.rank1(i) == cum, s"rank1($i)")
      if (set(i)) cum += 1
    }
    set.toSeq.zipWithIndex.foreach { case (pos, k) =>
      assert(bv.select1(k + 1) == pos, s"select1(${k + 1})")
    }
  }

  test("BitVec nextSetBit and select1 agree with a linear scan (random vectors and edges)") {
    def check(nbits: Int, bits: Iterable[Int], what: String): Unit = {
      val ref = new Array[Boolean](nbits)
      bits.foreach(ref(_) = true)
      val bv = new BitVec(nbits)
      bits.foreach(bv.set)
      bv.build()
      val ones = (0 until nbits).filter(ref(_))
      assert(bv.ones == ones.length, what)
      var next = nbits
      for (i <- nbits to 0 by -1) {
        if (i < nbits && ref(i)) next = i
        assert(bv.nextSetBit(i) == next, s"$what: nextSetBit($i)")
      }
      ones.zipWithIndex.foreach { case (pos, k) =>
        assert(bv.select1(k + 1) == pos, s"$what: select1(${k + 1})")
      }
    }
    check(0, Nil, "empty")
    check(300, Nil, "all clear")
    for (n <- Seq(1, 63, 64, 65, 1000, 1024)) check(n, 0 until n, s"all ones of $n")
    for (n <- Seq(65, 1000, 1024)) check(n, Seq(0, 63, 64, n - 1), s"bits 0, 63, 64, last of $n")
    // 64 ones, 40 empty words, 64 ones, 40 empty words, 3 ones: consecutive
    // select samples fall in words far apart
    val gaps = (0 until 64) ++ (41 * 64 until 42 * 64) ++ Seq(83 * 64, 83 * 64 + 5, 90 * 64 - 1)
    check(90 * 64, gaps, "empty words between samples")
    val rnd = new scala.util.Random(78)
    for (density <- Seq(0.001, 0.02, 0.5, 0.97); n <- Seq(777, 4096)) {
      check(n, (0 until n).filter(_ => rnd.nextDouble() < density), s"density $density of $n")
    }
  }
}
