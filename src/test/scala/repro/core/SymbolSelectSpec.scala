package repro.core

import org.scalatest.funsuite.AnyFunSuite

class SymbolSelectSpec extends AnyFunSuite {
  private def keys(ss: String*): Array[Array[Byte]] = ss.map(Bytes.of).toArray

  private def ngrams(ks: Array[Array[Byte]], n: Int) =
    SymbolSelect.windowCounts(ks, n, SymbolSelect.nGramLens(n))

  test("ngramCounts counts overlapping windows") {
    val c = ngrams(keys("banana"), 2)
    assert(c("an") == 2 && c("na") == 2 && c("ba") == 1)
  }

  test("ngramCounts skips keys shorter than n") {
    val c = ngrams(keys("ab", "a"), 3)
    assert(c.isEmpty)
  }

  test("topNGrams picks by frequency, ties lexicographic") {
    val top = SymbolSelect.topSymbols(ngrams(keys("aaab", "aaac"), 2), 2).map(Bytes.str)
    assert(top.head == "aa") // freq 4
    assert(top.contains("aa"))
    // equal counts (ac, ca, ab, bb: 1 each) rank in string order
    assert(SymbolSelect.topSymbols(ngrams(keys("acab", "bb"), 2), 3).map(Bytes.str) ==
      Seq("ab", "ac", "bb"))
  }

  test("substringCounts all-lengths vs suffix-ladder") {
    val all = SymbolSelect.windowCounts(keys("abc"), 8, SymbolSelect.almLens)
    assert(all.keySet == Set("a", "b", "c", "ab", "bc", "abc"))
    // the geometric ladder skips lengths 9-11, all-lengths does not
    val key12 = keys("abcdefghijkl")
    val longAll = SymbolSelect.windowCounts(key12, 12, SymbolSelect.almLens)
    val longSuf = SymbolSelect.windowCounts(key12, 12, SymbolSelect.ladderLens)
    assert(longAll.contains("abcdefghi"))
    assert(!longSuf.contains("abcdefghi"))
    assert(longSuf.contains("abcdefghijkl")) // full suffixes always counted
    // a remainder on the ladder is counted once, not once more as the full suffix
    assert(SymbolSelect.windowCounts(keys("abcd"), 32, SymbolSelect.ladderLens)("abcd") == 1)
    assert(longSuf.size < longAll.size)
  }

  test("suffix-only statistics are much smaller (the ALM-Improved speedup)") {
    val ks = Array.fill(200)(Bytes.of(scala.util.Random.alphanumeric.take(20).mkString))
    val all = SymbolSelect.windowCounts(ks, 16, SymbolSelect.almLens)
    val suf = SymbolSelect.windowCounts(ks, 16, SymbolSelect.ladderLens)
    assert(suf.size < all.size)
  }

  test("blend moves a prefix symbol's mass to its longest extension") {
    val m = scala.collection.mutable.HashMap("sig" -> 10L, "sigmo" -> 3L, "sigmod" -> 5L)
    val out = SymbolSelect.blend(m).toMap
    assert(!out.contains("sig"))
    assert(!out.contains("sigmo"))
    assert(out("sigmod") == 18L) // sig→sigmod (longest), sigmo→sigmod
    // tied longest extensions: the first in order takes the mass
    val tied = SymbolSelect.blend(scala.collection.mutable.HashMap("ab" -> 7L, "abc" -> 1L, "abd" -> 2L))
    assert(tied.toMap == Map("abc" -> 8L, "abd" -> 2L))
  }

  test("blend keeps non-prefix symbols untouched") {
    val m = scala.collection.mutable.HashMap("abc" -> 4L, "xyz" -> 2L)
    val out = SymbolSelect.blend(m).toMap
    assert(out == Map("abc" -> 4L, "xyz" -> 2L))
  }

  test("blend preserves total mass") {
    val rnd = new scala.util.Random(5)
    val m = scala.collection.mutable.HashMap.empty[String, Long]
    for (_ <- 0 until 500) {
      val s = Array.fill(1 + rnd.nextInt(6))(('a' + rnd.nextInt(4)).toChar).mkString
      m.update(s, m.getOrElse(s, 0L) + rnd.nextInt(10) + 1)
    }
    val before = m.values.sum
    val out = SymbolSelect.blend(m)
    assert(out.map(_._2).sum == before)
    // prefix property: no selected symbol is a prefix of another
    val syms = out.map(_._1).toArray.sorted
    for (i <- 1 until syms.length)
      assert(!syms(i).startsWith(syms(i - 1)), s"${syms(i - 1)} prefixes ${syms(i)}")
  }

  test("almSelect ranks by len × freq") {
    val sel = SymbolSelect.topSymbols(Seq("aa" -> 10L, "bbbb" -> 6L, "c" -> 15L), 2)
      .map(Bytes.str)
    assert(sel == Seq("bbbb", "aa")) // 24 > 20 > 15
  }

  test("hitCounts sums to the number of lookups and respects symbol lengths") {
    val iv = Axis.buildIntervals(Nil) // single-char
    val idx = new SingleCharIndex
    val hits = SymbolSelect.hitCounts(keys("aab", "b"), iv, idx)
    assert(hits('a'.toInt) == 2 && hits('b'.toInt) == 2)
    assert(hits.sum == 4)
  }

  test("extraBoundaries for n-grams include the gram and its increment") {
    val ks = Array.fill(50)(Bytes.of("ing"))
    val ex = SymbolSelect.extraBoundaries(Scheme.NGrams(3, 260), ks).map(Bytes.str)
    assert(ex.contains("ing") && ex.contains("inh"))
  }

  test("ALM boundaries produce a valid complete interval set") {
    val ks = Array.fill(100)(Bytes.of("com.gmail@user" + scala.util.Random.nextInt(10)))
    val iv = Axis.buildIntervals(SymbolSelect.extraBoundaries(Scheme.AlmImproved(512), ks))
    assert(iv.size >= 256)
    assert(iv.symbols.forall(_.nonEmpty))
    // a window needs at least one byte
    intercept[IllegalArgumentException](Scheme.Alm(512, 0))
    intercept[IllegalArgumentException](Scheme.AlmImproved(512, 0))
  }

  test("pinned SHA-256 of the selected boundaries for every variable-interval scheme") {
    // bench-sized draws at the datasets' default seeds, sampled as BenchBase.sample does
    def sample(n: Long, seed: Long, key: (Long, Long) => String): Array[Array[Byte]] = {
      val ks = repro.keys.KeySynth.draw(n, seed, key).map(Bytes.utf8)
      ks.take(math.max(1000, ks.length / 100))
    }
    val samples = Map(
      "email" -> sample(60000, 7, repro.keys.KeySynth.emailKey),
      "url"   -> sample(30000, 13, repro.keys.KeySynth.urlKey),
    )
    val pinned = Seq(
      (Scheme.NGrams(3, 65536), "email",
       "d5d0e02afe4b76c326ce7cccc2f6eed3c8463f4097cc1384460c42f5f0e7feef"),
      (Scheme.NGrams(3, 65536), "url",
       "9e7549292584a31bc6da74e064a712bcd4be5ba4c67a10339acad3eb11d347a6"),
      (Scheme.NGrams(4, 4096), "email",
       "6d1744cc3fc2d39158dd0f20b1a5601465c36adf0490231318d2e07726d07cfa"),
      (Scheme.NGrams(4, 4096), "url",
       "3f723728dc7aee118cc155533405e02381502a98b99c95d49db380b4c1916c1b"),
      (Scheme.Alm(4096, 12), "email",
       "db4ed637374eb85a34ee65bbf3933cbb8d55fb8b3c715799ed50265bfde8e174"),
      (Scheme.Alm(4096, 12), "url",
       "6ed3dcc7243d3bb4849ea1b8c03674a63adab2b2175f15cdbcabde0a6b3b67fd"),
      (Scheme.AlmImproved(4096), "email",
       "234c15e981abe2960a2eb47ba6c3613307f710bf123364ee806658088ea5ed0a"),
      (Scheme.AlmImproved(4096), "url",
       "c47ac3cbaec22c1eed14dd7d829720c1f05cbe11f3af4f0bb128e29c701938b3"),
      (Scheme.AlmImproved(65536), "email",
       "1cb6b2494b1d442126e73c1004db616a40bd73b0c58225020e314dd30d258c3c"),
      (Scheme.AlmImproved(65536), "url",
       "416303f7b60afaaafb2e1c16f0a3178caedd8bdea78d9dfb0d139c1290457f4d"),
    )
    // each boundary enters the digest behind its 4-byte big-endian length
    for ((scheme, ds, digest) <- pinned) {
      val sha = java.security.MessageDigest.getInstance("SHA-256")
      val len = java.nio.ByteBuffer.allocate(4)
      SymbolSelect.extraBoundaries(scheme, samples(ds)).foreach { b =>
        sha.update(len.clear().putInt(b.length).array())
        sha.update(b)
      }
      val got = Bytes.hex(sha.digest())
      assert(got == digest, s"${scheme.name} on $ds")
    }
  }
}
