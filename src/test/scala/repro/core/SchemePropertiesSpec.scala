package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Property battery over all six schemes: completeness, order preservation,
  * lossless decode, and padded-byte ordering of terminated keys — the §3.1
  * guarantees ("any HOPE dictionary can encode arbitrary input keys and
  * preserve the original key ordering").
  */
class SchemePropertiesSpec extends AnyFunSuite {

  private val rnd = new scala.util.Random(12345)

  /** Skewed ASCII sample resembling email-ish keys. */
  private val sample: Array[Array[Byte]] = {
    val domains = Array("com.gmail@", "com.yahoo@", "org.mail@", "net.abc@")
    Array.fill(600) {
      val d = domains(rnd.nextInt(domains.length))
      val name = Array.fill(4 + rnd.nextInt(8))(('a' + rnd.nextInt(26)).toChar).mkString
      Bytes.of(d + name + rnd.nextInt(100))
    }
  }

  private val schemes: Seq[Scheme] = Seq(
    Scheme.SingleChar,
    Scheme.DoubleChar,
    Scheme.NGrams(3, 1 << 10),
    Scheme.NGrams(4, 1 << 10),
    Scheme.Alm(1 << 9, maxSymbolLen = 8),
    Scheme.AlmImproved(1 << 9),
  )

  private val built: Map[String, BuiltHope] =
    schemes.map(s => s.name -> Hope.build(sample, s)).toMap

  private def randKey(maxLen: Int, nulFree: Boolean): Array[Byte] = {
    val n = 1 + rnd.nextInt(maxLen)
    Array.fill(n)(if (nulFree) (rnd.nextInt(255) + 1).toByte else rnd.nextInt(256).toByte)
  }

  private def asciiKey(): Array[Byte] = {
    val n = 1 + rnd.nextInt(25)
    Array.fill(n)((32 + rnd.nextInt(95)).toByte)
  }

  /** The sample, the empty key, random keys over every byte, and keys over
    * {0x00, 0x61, 0xff}, which are full of 0x00 and 0xff runs.
    */
  private lazy val oracleKeys: Seq[Array[Byte]] = {
    val edge = Array[Byte](0, 0x61, -1)
    Seq(Array.emptyByteArray) ++ sample ++ Seq.fill(300)(randKey(40, nulFree = false)) ++
      Seq.fill(300)(Array.fill(1 + rnd.nextInt(30))(edge(rnd.nextInt(3))))
  }

  /** `encode`, `encodeTerminated` and `encodeBatchSorted` of `h` give the
    * reference encoder's bits on every key of [[oracleKeys]].
    */
  private def assertMatchesReference(h: BuiltHope): Unit = {
    for (k <- oracleKeys) {
      assert(h.encode(k) == ReferenceEncoder.encode(h, k), s"encode ${Bytes.hex(k)}")
      assert(h.encodeTerminated(k) == ReferenceEncoder.encode(h, k :+ 0.toByte),
        s"encodeTerminated ${Bytes.hex(k)}")
    }
    val sorted = oracleKeys.toArray.sortWith(Bytes.compare(_, _) < 0)
    val want = sorted.map(ReferenceEncoder.encode(h, _))
    for (bs <- Seq(1, 2, 8, 32)) {
      val got = h.encodeBatchSorted(sorted, bs)
      for (i <- sorted.indices) assert(got(i) == want(i), s"batch=$bs key=${Bytes.hex(sorted(i))}")
    }
  }

  for (s <- schemes) {
    val h = built(s.name)

    test(s"${s.name}: every encoder gives the reference encoder's bits") {
      assertMatchesReference(h)
    }

    test(s"${s.name}: 1-, 63- and 64-bit codes pack exactly across word boundaries") {
      // random lengths make every offset within a word occur, and 64-bit
      // codes both at a word start and straddling two words
      val lens = Array.fill(h.entries)(Array(1, 63, 64)(rnd.nextInt(3)))
      val codes = lens.map(l => rnd.nextLong() >>> (64 - l))
      assertMatchesReference(new BuiltHope(h.scheme, h.intervals, h.index, codes, lens, h.stats))
    }

    test(s"${s.name}: dictionary is complete — arbitrary byte strings encode") {
      for (_ <- 0 until 500) {
        val k = randKey(24, nulFree = false)
        val e = h.encode(k)
        assert(e.bitLen > 0)
      }
    }

    test(s"${s.name}: encode is lossless (decode roundtrip, arbitrary bytes)") {
      for (_ <- 0 until 500) {
        val k = randKey(24, nulFree = false)
        assert(java.util.Arrays.equals(h.decode(h.encode(k)), k), Bytes.hex(k))
      }
    }

    test(s"${s.name}: bitstring order preserved on arbitrary byte strings") {
      for (_ <- 0 until 1000) {
        val a = randKey(16, nulFree = false)
        val b = randKey(16, nulFree = false)
        val cRaw = Bytes.compare(a, b)
        val cEnc = h.encode(a).compare(h.encode(b))
        assert(math.signum(cRaw) == math.signum(cEnc),
          s"order broken: ${Bytes.hex(a)} vs ${Bytes.hex(b)}")
      }
    }

    test(s"${s.name}: padded-byte order exact for terminated NUL-free keys") {
      for (_ <- 0 until 1000) {
        val a = randKey(16, nulFree = true)
        val b = randKey(16, nulFree = true)
        val cRaw = Bytes.compare(a, b)
        val cEnc = Bytes.compare(h.encodeTerminated(a).bytes, h.encodeTerminated(b).bytes)
        assert(math.signum(cRaw) == math.signum(cEnc),
          s"padded order broken: ${Bytes.hex(a)} vs ${Bytes.hex(b)}")
      }
    }

    test(s"${s.name}: terminated encodings are injective on NUL-free keys") {
      val keys = Array.fill(400)(randKey(8, nulFree = true))
      val distinctRaw = keys.map(Bytes.hex).distinct.length
      val distinctEnc = keys.map(k => Bytes.hex(h.encodeTerminated(k).bytes)).distinct.length
      assert(distinctRaw == distinctEnc)
    }

    test(s"${s.name}: sampled-distribution keys compress (CPR > 1)") {
      val cpr = Hope.compressionRate(h, sample.iterator)
      assert(cpr > 1.0, s"cpr=$cpr")
    }

    test(s"${s.name}: codes are monotone across entries") {
      val n = h.entries
      for (i <- 1 until n) {
        val m = math.min(h.codeLens(i - 1), h.codeLens(i))
        val a = h.codes(i - 1) >>> (h.codeLens(i - 1) - m)
        val b = h.codes(i) >>> (h.codeLens(i) - m)
        assert(a < b, s"entry $i")
      }
    }

    test(s"${s.name}: batch encoding equals one-at-a-time encoding") {
      val keys = Array.fill(300)(asciiKey()).sortWith(Bytes.compare(_, _) < 0)
      for (bs <- Seq(1, 2, 8, 32)) {
        val batched = h.encodeBatchSorted(keys, bs)
        keys.indices.foreach { i =>
          assert(batched(i) == h.encode(keys(i)), s"batch=$bs i=$i key=${Bytes.str(keys(i))}")
        }
      }
    }

    test(s"${s.name}: encodeTerminated(k) equals encode(k :+ 0) bit for bit") {
      val keys = Seq(Array.emptyByteArray, Array(0xff.toByte), Array(0.toByte)) ++
        (1 to 10).flatMap(n => Seq(Array.fill(n)(rnd.nextInt(256).toByte), Array.fill(n)(0xff.toByte),
          randKey(n, nulFree = true) :+ 0xff.toByte)) ++
        Seq.fill(500)(randKey(24, nulFree = false)) ++ sample.take(100)
      for (k <- keys)
        assert(h.encodeTerminated(k) == h.encode(k :+ 0.toByte), Bytes.hex(k))
    }

    test(s"${s.name}: 4 threads encoding interleaved keys match one thread") {
      val keys = (Seq.fill(400)(randKey(40, nulFree = false)) ++ sample.take(200)).toArray
      val want = keys.map(k => (h.encode(k), h.encodeTerminated(k)))
      val pool = java.util.concurrent.Executors.newFixedThreadPool(4)
      try {
        val jobs = (0 until 4).map { t =>
          pool.submit(new java.util.concurrent.Callable[Seq[Int]] {
            // thread t walks the keys from its own start, in its own order
            def call(): Seq[Int] = for {
              round <- 0 until 5
              j <- keys.indices
              i = (t * 97 + j * (2 * t + 1) + round) % keys.length
              if h.encode(keys(i)) != want(i)._1 || h.encodeTerminated(keys(i)) != want(i)._2
            } yield i
          })
        }
        for (j <- jobs) assert(j.get().isEmpty, s"thread output differs on keys ${j.get().take(5)}")
      } finally pool.shutdown()
    }

    test(s"${s.name}: an encode that throws leaves later encodes exact") {
      val failing = new BuiltHope(h.scheme, h.intervals, new DictIndex {
        def lookup(key: Array[Byte], off: Int): Int =
          if (off > 20) throw new IllegalStateException("lookup failed") else h.index.lookup(key, off)
        def memoryBytes: Long = 0
      }, h.codes, h.codeLens, h.stats)
      val long = Array.fill(64)(0xff.toByte)
      for (k <- Seq.fill(50)(randKey(20, nulFree = false))) {
        intercept[IllegalStateException](failing.encode(long))
        assert(failing.encode(k.take(20)) == h.encode(k.take(20)), Bytes.hex(k))
        assert(h.encodeTerminated(k) == h.encode(k :+ 0.toByte), Bytes.hex(k))
      }
    }
  }

  test("a code longer than 64 bits is rejected, naming its entry") {
    val h = built(Scheme.SingleChar.name)
    val lens = h.codeLens.clone()
    lens(0x41) = 65
    val e = intercept[IllegalArgumentException](
      new BuiltHope(h.scheme, h.intervals, h.index, h.codes, lens, h.stats))
    assert(e.getMessage.contains("entry 65 (symbol 41)"), e.getMessage)
  }

  test("decode rejects a truncated and an invalid code stream") {
    // Hu-Tucker codes form a full tree: a stream cut inside a code is truncated
    val single = built(Scheme.SingleChar.name)
    val z = single.encode(Bytes.of("~"))
    assert(z.bitLen > 1, z.toString)
    val cut = intercept[IllegalArgumentException](single.decode(Encoded(z.bytes, z.bitLen - 1)))
    assert(cut.getMessage.contains("truncated code stream"), cut.getMessage)
    // appending a 0 to the last code leaves its 1-branch unused: no code
    // starts a stream of ones
    val codes = single.codes.clone(); codes(255) <<= 1
    val lens = single.codeLens.clone(); lens(255) += 1
    val gap = new BuiltHope(single.scheme, single.intervals, single.index, codes, lens, single.stats)
    val bad = intercept[IllegalArgumentException](gap.decode(Encoded(Array.fill(8)((-1).toByte), 64)))
    assert(bad.getMessage.contains("invalid code stream"), bad.getMessage)
  }

  test("Double-Char dictionary has exactly 65792 entries (256·257)") {
    assert(built(Scheme.DoubleChar.name).entries == 65792)
  }
  test("Single-Char dictionary has exactly 256 entries") {
    assert(built(Scheme.SingleChar.name).entries == 256)
  }
  test("3-Grams dictionary respects its size limit") {
    val h = built(Scheme.NGrams(3, 1 << 10).name)
    assert(h.entries >= 256 && h.entries <= (1 << 10) + 512)
  }
  test("VIVC schemes compress better than Single-Char on the skewed sample") {
    val single = Hope.compressionRate(built(Scheme.SingleChar.name), sample.iterator)
    val g3 = Hope.compressionRate(built(Scheme.NGrams(3, 1 << 10).name), sample.iterator)
    assert(g3 > single, s"3-grams $g3 <= single-char $single")
  }
  test("Double-Char compresses better than Single-Char (first-order entropy)") {
    val single = Hope.compressionRate(built(Scheme.SingleChar.name), sample.iterator)
    val double = Hope.compressionRate(built(Scheme.DoubleChar.name), sample.iterator)
    assert(double > single)
  }
  test("ALM-Improved beats original ALM on compression (paper §6.1)") {
    val alm = Hope.compressionRate(built(Scheme.Alm(1 << 9, 8).name), sample.iterator)
    val almI = Hope.compressionRate(built(Scheme.AlmImproved(1 << 9).name), sample.iterator)
    assert(almI > alm, s"alm-improved $almI <= alm $alm")
  }
  test("empty input encodes to empty bitstring") {
    for (s <- schemes) assert(built(s.name).encode(Array.emptyByteArray).bitLen == 0)
  }
}
