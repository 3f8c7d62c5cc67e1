package repro.hot

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Bytes

class CritBitSpec extends AnyFunSuite {

  private def refMap = new java.util.TreeMap[Array[Byte], Long](
    (a: Array[Byte], b: Array[Byte]) => Bytes.compare(a, b))

  /** NUL-terminated random keys (the tree's integration contract). */
  private def randKeys(n: Int, maxLen: Int, seed: Long) = {
    val rnd = new scala.util.Random(seed)
    Array.fill(n) {
      val body = Array.fill(1 + rnd.nextInt(maxLen))((rnd.nextInt(255) + 1).toByte)
      java.util.Arrays.copyOf(body, body.length + 1) // trailing 0x00
    }
  }

  test("insert/get basic") {
    val t = new CritBitTrie
    val keys = Seq("apple\u0000", "app\u0000", "banana\u0000", "band\u0000").map(Bytes.of)
    keys.zipWithIndex.foreach { case (k, i) => t.insert(k, i.toLong) }
    keys.zipWithIndex.foreach { case (k, i) => assert(t.get(k) == i.toLong) }
    assert(t.get(Bytes.of("appl\u0000")) == -1L)
    assert(t.size == 4)
  }

  test("duplicate insert replaces") {
    val t = new CritBitTrie
    t.insert(Bytes.of("x\u0000"), 1); t.insert(Bytes.of("x\u0000"), 7)
    assert(t.get(Bytes.of("x\u0000")) == 7 && t.size == 1)
  }

  test("distinct keys equal after zero padding are rejected, naming both in hex") {
    val t = new CritBitTrie
    t.insert(Bytes.of("ab"), 1)
    val e = intercept[IllegalArgumentException](t.insert(Bytes.of("ab\u0000"), 2))
    assert(e.getMessage.contains("6162") && e.getMessage.contains("616200"), e.getMessage)
    assert(t.size == 1 && t.get(Bytes.of("ab")) == 1)
    t.insert(Bytes.of("ab"), 3) // the same key again still replaces its value
    assert(t.size == 1 && t.get(Bytes.of("ab")) == 3)
    // a longer key that is non-zero past the zeros is distinct
    t.insert(Bytes.of("ab\u0000\u0000\u0001"), 4)
    assert(t.size == 2 && t.get(Bytes.of("ab")) == 3 && t.get(Bytes.of("ab\u0000\u0000\u0001")) == 4)
  }

  test("randomized insert/get vs TreeMap (20k terminated keys)") {
    val t = new CritBitTrie; val ref = refMap
    randKeys(20000, 10, 13).zipWithIndex.foreach { case (k, i) =>
      t.insert(k, i.toLong); ref.put(k, i.toLong)
    }
    import scala.jdk.CollectionConverters._
    ref.entrySet().asScala.foreach(e => assert(t.get(e.getKey) == e.getValue))
    assert(t.size == ref.size)
    randKeys(3000, 10, 14).foreach { k =>
      val expect = if (ref.containsKey(k)) ref.get(k) else -1L
      assert(t.get(k) == expect)
    }
  }

  test("scan agrees with tailMap on terminated keys") {
    val t = new CritBitTrie; val ref = refMap
    randKeys(8000, 6, 23).zipWithIndex.foreach { case (k, i) =>
      t.insert(k, i.toLong); ref.put(k, i.toLong)
    }
    import scala.jdk.CollectionConverters._
    randKeys(400, 7, 24).foreach { p =>
      val got = t.scan(p, 20).map(kv => Bytes.hex(kv._1)).toSeq
      val want = ref.tailMap(p, true).keySet().iterator().asScala.take(20).map(Bytes.hex).toSeq
      assert(got == want, s"probe=${Bytes.hex(p)}")
    }
    // unterminated keys over {00, 01, 02, ff}: many are prefixes of others or
    // end in zero bytes; an insert of a key equal to a stored one after zero
    // padding throws and is left out of both
    val alphabet = Array[Byte](0, 1, 2, -1)
    val rnd = new scala.util.Random(25)
    def key() = Array.fill(1 + rnd.nextInt(6))(alphabet(rnd.nextInt(alphabet.length)))
    for (_ <- 0 until 40) {
      val u = new CritBitTrie; val uRef = refMap
      for (i <- 0 until 300) {
        val k = key()
        try { u.insert(k, i.toLong); uRef.put(k, i.toLong) }
        catch { case _: IllegalArgumentException => }
      }
      for (_ <- 0 until 300) {
        val p = key()
        val limit = 1 + rnd.nextInt(20)
        val got = u.scan(p, limit).map(kv => Bytes.hex(kv._1)).toSeq
        val want = uRef.tailMap(p, true).keySet().iterator().asScala.take(limit).map(Bytes.hex).toSeq
        assert(got == want, s"probe=${Bytes.hex(p)} limit=$limit")
      }
    }
  }

  test("scan from empty-low returns everything in order") {
    val t = new CritBitTrie
    val keys = randKeys(1000, 5, 33)
    keys.zipWithIndex.foreach { case (k, i) => t.insert(k, i.toLong) }
    val out = t.scan(Array(0.toByte), 100000)
    assert(out.size == t.size)
    for (i <- 1 until out.size) assert(Bytes.compare(out(i - 1)._1, out(i)._1) < 0)
  }

  test("memory is dominated by per-key constants, not key bytes (partial-key storage)") {
    val short = new CritBitTrie
    val long = new CritBitTrie
    val rnd = new scala.util.Random(43)
    for (i <- 0 until 3000) {
      val suffix = rnd.nextInt(1000000).toString
      short.insert(Bytes.of(s"k$suffix") :+ 0.toByte, i.toLong)
      long.insert(Bytes.of(s"http://www.a-very-long-shared-prefix.example.com/$suffix") :+ 0.toByte, i.toLong)
    }
    // same structure size regardless of key length — the HOT property
    assert(math.abs(short.memoryBytes - long.memoryBytes) < short.memoryBytes / 10)
  }

  test("avgLeafDepth is logarithmic-ish in n") {
    val t = new CritBitTrie
    randKeys(4096, 8, 53).zipWithIndex.foreach { case (k, i) => t.insert(k, i.toLong) }
    assert(t.avgLeafDepth > 5 && t.avgLeafDepth < 64)
  }

  test("empty tree behaves") {
    val t = new CritBitTrie
    assert(t.get(Bytes.of("x")) == -1L)
    assert(t.scan(Bytes.of("x"), 5).isEmpty)
  }
}
