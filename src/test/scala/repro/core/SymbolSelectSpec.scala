package repro.core

import org.scalatest.funsuite.AnyFunSuite

class SymbolSelectSpec extends AnyFunSuite {
  private def keys(ss: String*): Array[Array[Byte]] = ss.map(Bytes.of).toArray

  test("ngramCounts counts overlapping windows") {
    val c = SymbolSelect.ngramCounts(keys("banana"), 2)
    assert(c("an") == 2 && c("na") == 2 && c("ba") == 1)
  }

  test("ngramCounts skips keys shorter than n") {
    val c = SymbolSelect.ngramCounts(keys("ab", "a"), 3)
    assert(c.isEmpty)
  }

  test("topNGrams picks by frequency, ties lexicographic") {
    val top = SymbolSelect.topNGrams(keys("aaab", "aaac"), 2, 2).map(Bytes.str)
    assert(top.head == "aa") // freq 4
    assert(top.contains("aa"))
  }

  test("substringCounts all-lengths vs suffix-ladder") {
    val all = SymbolSelect.substringCounts(keys("abc"), 8, suffixOnly = false)
    assert(all.keySet == Set("a", "b", "c", "ab", "bc", "abc"))
    // the geometric ladder skips lengths 9-11, all-lengths does not
    val key12 = keys("abcdefghijkl")
    val longAll = SymbolSelect.substringCounts(key12, 12, suffixOnly = false)
    val longSuf = SymbolSelect.substringCounts(key12, 12, suffixOnly = true)
    assert(longAll.contains("abcdefghi"))
    assert(!longSuf.contains("abcdefghi"))
    assert(longSuf.contains("abcdefghijkl")) // full suffixes always counted
    assert(longSuf.size < longAll.size)
  }

  test("suffix-only statistics are much smaller (the ALM-Improved speedup)") {
    val ks = Array.fill(200)(Bytes.of(scala.util.Random.alphanumeric.take(20).mkString))
    val all = SymbolSelect.substringCounts(ks, 16, suffixOnly = false)
    val suf = SymbolSelect.substringCounts(ks, 16, suffixOnly = true)
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
    val sel = SymbolSelect.almSelect(Seq("aa" -> 10L, "bbbb" -> 6L, "c" -> 15L), 2)
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
  }
}
