package repro.art

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Bytes

class ArtSpec extends AnyFunSuite {

  private def refMap = new java.util.TreeMap[Array[Byte], Long](
    (a: Array[Byte], b: Array[Byte]) => Bytes.compare(a, b))

  private def randKeys(n: Int, maxLen: Int, seed: Long, nulFree: Boolean = false) = {
    val rnd = new scala.util.Random(seed)
    Array.fill(n)(Array.fill(1 + rnd.nextInt(maxLen))(
      (if (nulFree) rnd.nextInt(255) + 1 else rnd.nextInt(256)).toByte))
  }

  test("insert/get on a handful of keys") {
    val art = new Art
    val keys = Seq("abc", "abcd", "ab", "b", "abcde", "zzz").map(Bytes.of)
    keys.zipWithIndex.foreach { case (k, i) => art.insert(k, i.toLong) }
    keys.zipWithIndex.foreach { case (k, i) => assert(art.get(k) == i.toLong, Bytes.str(k)) }
    assert(art.get(Bytes.of("abce")) == -1L)
    assert(art.get(Bytes.of("a")) == -1L)
    assert(art.size == keys.size)
  }

  test("prefix keys: a key that is a prefix of another is retrievable") {
    val art = new Art
    art.insert(Bytes.of("sig"), 1)
    art.insert(Bytes.of("sigmod"), 2)
    art.insert(Bytes.of("sigmodconf"), 3)
    assert(art.get(Bytes.of("sig")) == 1)
    assert(art.get(Bytes.of("sigmod")) == 2)
    assert(art.get(Bytes.of("sigmodconf")) == 3)
  }

  test("duplicate insert replaces the value") {
    val art = new Art
    art.insert(Bytes.of("k"), 1)
    art.insert(Bytes.of("k"), 9)
    assert(art.get(Bytes.of("k")) == 9 && art.size == 1)
  }

  test("node growth 4→16→48→256 under 256 distinct first bytes") {
    val art = new Art
    for (b <- 0 until 256) art.insert(Array(b.toByte, 'x'.toByte), b.toLong)
    for (b <- 0 until 256) assert(art.get(Array(b.toByte, 'x'.toByte)) == b.toLong)
  }

  test("randomized insert/get agrees with TreeMap (10k keys)") {
    val art = new Art
    val ref = refMap
    val keys = randKeys(10000, 12, 7)
    keys.zipWithIndex.foreach { case (k, i) => art.insert(k, i.toLong); ref.put(k, i.toLong) }
    import scala.jdk.CollectionConverters._
    ref.entrySet().asScala.foreach(e => assert(art.get(e.getKey) == e.getValue))
    assert(art.size == ref.size)
    // misses
    randKeys(2000, 12, 8).foreach { k =>
      val expect = if (ref.containsKey(k)) ref.get(k) else -1L
      assert(art.get(k) == expect)
    }
  }

  test("floor agrees with TreeMap.floorKey (randomized)") {
    val art = new Art
    val ref = refMap
    randKeys(3000, 6, 21).zipWithIndex.foreach { case (k, i) =>
      art.insert(k, i.toLong); ref.put(k, i.toLong)
    }
    val probes = randKeys(4000, 8, 22)
    probes.foreach { p =>
      val got = Option(art.floor(p, 0)).map(l => Bytes.hex(l.key))
      val want = Option(ref.floorKey(p)).map(Bytes.hex)
      assert(got == want, s"probe=${Bytes.hex(p)}")
    }
  }

  test("floor with offset equals floor of the suffix") {
    val art = new Art
    randKeys(1000, 4, 31).zipWithIndex.foreach { case (k, i) => art.insert(k, i.toLong) }
    val probes = randKeys(1000, 10, 32)
    probes.foreach { p =>
      for (off <- 0 until p.length) {
        val suffix = p.drop(off)
        val a = Option(art.floor(p, off)).map(l => Bytes.hex(l.key))
        val b = Option(art.floor(suffix, 0)).map(l => Bytes.hex(l.key))
        assert(a == b, s"off=$off probe=${Bytes.hex(p)}")
      }
    }
  }

  test("scan agrees with TreeMap.tailMap (randomized)") {
    val art = new Art
    val ref = refMap
    randKeys(5000, 8, 41).zipWithIndex.foreach { case (k, i) =>
      art.insert(k, i.toLong); ref.put(k, i.toLong)
    }
    import scala.jdk.CollectionConverters._
    val probes = randKeys(300, 9, 42)
    probes.foreach { p =>
      val got = art.scan(p, 20).map(l => Bytes.hex(l.key)).toSeq
      val want = ref.tailMap(p, true).keySet().iterator().asScala.take(20).map(Bytes.hex).toSeq
      assert(got == want, s"probe=${Bytes.hex(p)}")
    }
  }

  test("scan returns results in sorted order and respects the limit") {
    val art = new Art
    randKeys(2000, 6, 51).zipWithIndex.foreach { case (k, i) => art.insert(k, i.toLong) }
    val out = art.scan(Array.emptyByteArray, 100)
    assert(out.size == 100)
    for (i <- 1 until out.size) assert(Bytes.compare(out(i - 1).key, out(i).key) < 0)
  }

  test("memory accounting: dict mode ≥ ocps mode; both positive") {
    val art = new Art
    randKeys(2000, 20, 61).zipWithIndex.foreach { case (k, i) => art.insert(k, i.toLong) }
    assert(art.dictMemoryBytes > art.ocpsMemoryBytes)
    assert(art.ocpsMemoryBytes > 0)
  }

  test("memory accounting: exact bytes at every node-size step") {
    // One inner node with a 10-byte prefix over k leaves "abcdefghij" + b.
    // Inner: 32 B header + prefix (8 B under the OCPS cap, 10 B in full) +
    // body: 4 + 4·8 = 36 (k ≤ 4), 16 + 16·8 = 144 (k ≤ 16), 256 + 48·8 = 640
    // (k ≤ 48), 256·8 = 2048 above. Leaf: 24 B, plus 16 B + 11 key bytes in
    // dictionary mode. So ocps = 40 + body + 24k and dict = 42 + body + 51k.
    val want = Seq( // (k, ocps, dict)
      (4, 172, 282), (5, 304, 441), (16, 568, 1002),
      (17, 1088, 1549), (48, 1832, 3130), (49, 3264, 4589))
    for ((k, ocps, dict) <- want) {
      val art = new Art
      for (b <- (0 until k).reverse) art.insert(Bytes.of("abcdefghij") :+ b.toByte, b.toLong)
      assert(art.ocpsMemoryBytes == ocps, s"k=$k")
      assert(art.dictMemoryBytes == dict, s"k=$k")
      for (b <- 0 until k) assert(art.get(Bytes.of("abcdefghij") :+ b.toByte) == b.toLong)
    }
  }

  test("avgLeafDepth shrinks for keys with a long shared prefix vs random") {
    val shared = new Art
    (0 until 1000).foreach(i => shared.insert(Bytes.of(f"http://www.same-prefix.com/$i%06d"), i.toLong))
    assert(shared.avgLeafDepth > 0)
  }

  test("empty tree: get misses, floor null, scan empty") {
    val art = new Art
    assert(art.get(Bytes.of("x")) == -1L)
    assert(art.floor(Bytes.of("x"), 0) == null)
    assert(art.scan(Bytes.of("x"), 5).isEmpty)
  }
}
