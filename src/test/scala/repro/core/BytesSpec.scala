package repro.core

import org.scalatest.funsuite.AnyFunSuite

class BytesSpec extends AnyFunSuite {

  // Byte-at-a-time reference implementations of the three comparisons.
  private def refCompare(a: Array[Byte], b: Array[Byte]): Int = {
    val n = math.min(a.length, b.length)
    var i = 0
    while (i < n) {
      val d = (a(i) & 0xff) - (b(i) & 0xff)
      if (d != 0) return d
      i += 1
    }
    a.length - b.length
  }

  private def refCompareSuffix(key: Array[Byte], off: Int, b: Array[Byte]): Int =
    refCompare(key.drop(off), b)

  private def refLcp(a: Array[Byte], b: Array[Byte]): Int = {
    val n = math.min(a.length, b.length)
    var i = 0
    while (i < n && a(i) == b(i)) i += 1
    i
  }

  private val rnd = new scala.util.Random(5)

  /** Lengths around the 8-byte stride of the vectorised mismatch. */
  private val lengths = Seq(0, 1, 2, 7, 8, 9, 15, 16, 17, 31)

  /** Bytes 0x00 and 0x80–0xFF only: a signed comparison or a dropped zero
    * would order some pair wrongly.
    */
  private def randBytes(len: Int): Array[Byte] =
    Array.fill(len)(if (rnd.nextInt(4) == 0) 0.toByte else (0x80 + rnd.nextInt(128)).toByte)

  /** Pairs that are random, equal, proper prefixes, and equal up to one
    * late byte, over every length pair above.
    */
  private val pairs: Seq[(Array[Byte], Array[Byte])] = for {
    la <- lengths
    lb <- lengths
    kind <- 0 until 4
    _ <- 0 until 5
  } yield {
    val a = randBytes(la)
    kind match {
      case 0 => (a, randBytes(lb))
      case 1 => (a, a.clone())
      case 2 => (a, a.take(lb)) // a proper prefix when lb < la
      case _ =>
        val b = java.util.Arrays.copyOf(a, math.max(la, lb))
        if (b.nonEmpty) { val i = rnd.nextInt(b.length); b(i) = (b(i) ^ 0x80).toByte }
        (a, b)
    }
  }

  test("signum(compare) agrees with the byte loop") {
    for ((a, b) <- pairs) {
      assert(math.signum(Bytes.compare(a, b)) == math.signum(refCompare(a, b)),
        s"${Bytes.hex(a)} vs ${Bytes.hex(b)}")
      assert(math.signum(Bytes.compare(b, a)) == math.signum(refCompare(b, a)))
    }
  }

  test("signum(compareSuffix) agrees with the byte loop at every offset") {
    for ((a, b) <- pairs; off <- 0 to a.length) {
      assert(math.signum(Bytes.compareSuffix(a, off, b)) == math.signum(refCompareSuffix(a, off, b)),
        s"${Bytes.hex(a)} at $off vs ${Bytes.hex(b)}")
    }
  }

  test("lcp agrees with the byte loop") {
    for ((a, b) <- pairs) {
      assert(Bytes.lcp(a, b) == refLcp(a, b), s"${Bytes.hex(a)} vs ${Bytes.hex(b)}")
      assert(Bytes.lcp(b, a) == refLcp(a, b))
      for (aFrom <- 0 to a.length; bFrom <- 0 to b.length)
        assert(Bytes.lcp(a, aFrom, b, bFrom) == refLcp(a.drop(aFrom), b.drop(bFrom)),
          s"${Bytes.hex(a)} from $aFrom vs ${Bytes.hex(b)} from $bFrom")
    }
  }

  test("empty arrays: equal to each other, before any non-empty array") {
    val e = Array.emptyByteArray
    assert(Bytes.compare(e, e) == 0 && Bytes.lcp(e, e) == 0)
    assert(Bytes.compare(e, Array(0.toByte)) < 0 && Bytes.compare(Array(0.toByte), e) > 0)
    assert(Bytes.compareSuffix(Array[Byte](1, 2), 2, e) == 0)
    assert(Bytes.compareSuffix(Array[Byte](1, 2), 1, e) > 0)
  }
}
