package repro.bench

import repro.core.{Axis, BitmapTrie, Scheme, SortedArrayIndex, SymbolSelect}
import repro.eval.{Measure, Tables}

/** T10 ⇔ §4.2 claim: the bitmap-trie dictionary is ~2.3× faster than binary
  * search over the same entries, and up to an order of magnitude smaller
  * than the ART-based dictionary.
  */
class T10DictStructBench extends BenchSuite {

  private lazy val sample = BenchBase.sample("email")
  private lazy val keys = BenchBase.keys("email")

  private lazy val lookups = keys.map(k => (k.length + 2) / 3).sum

  /** Op `i`: lookups at every third offset of key `i`. */
  private def lookupKey(lookup: (Array[Byte], Int) => Int): Int => Long = { i =>
    val k = keys(i)
    var sum = 0L
    var off = 0
    while (off < k.length) { sum += lookup(k, off); off += 3 }
    sum
  }

  /** ns per lookup. */
  private def time(lookup: (Array[Byte], Int) => Int): Double =
    Measure.nsPerOp(keys.length)(lookupKey(lookup)) * keys.length / lookups

  test("emit T10 (bitmap-trie vs binary search) and check the speedup direction") {
    val iv = Axis.buildIntervals(
      SymbolSelect.extraBoundaries(Scheme.NGrams(3, 1 << 16), sample))
    val trie = BitmapTrie(iv.boundaries, 3)
    val bin = new SortedArrayIndex(iv.boundaries)
    val art = repro.art.ArtDictIndex(iv.boundaries)

    val tTrie = time(trie.lookup)
    val tBin = time(bin.lookup)
    val tArt = time(art.lookup)

    Tables.emit("T10_dictstruct", Tables.render(
      s"T10 / §4.2 — dictionary structure lookup (ns), ${iv.size} entries",
      Seq("structure", "ns/lookup", "memory"),
      Seq(
        Seq("bitmap-trie", Tables.fmt(tTrie), Tables.kb(trie.memoryBytes)),
        Seq("binary-search", Tables.fmt(tBin), Tables.kb(bin.memoryBytes)),
        Seq("ART", Tables.fmt(tArt), Tables.kb(art.memoryBytes)))))

    // trie pass time over binary-search pass time, passes paired so drift hits both alike
    val paired = Measure.ratio(keys.length)(lookupKey(trie.lookup), lookupKey(bin.lookup))
    println(f"T10 paired: bitmap-trie/binary-search = $paired%.3f (single blocks ${tTrie / tBin}%.3f)")
    assert(paired < 1, s"bitmap-trie/binary-search = $paired !< 1")
    assert(trie.memoryBytes < art.memoryBytes,
      s"bitmap-trie ${trie.memoryBytes} !< ART ${art.memoryBytes}")
  }
}
