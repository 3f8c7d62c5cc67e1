package repro.core

import scala.collection.mutable

/** The six compression schemes of §3.3. `dictSizeLimit` bounds the number of
  * dictionary entries for the variable-interval schemes (the fixed-interval
  * schemes have implied sizes: 256 and 65 792).
  */
sealed trait Scheme extends Serializable {
  def name: String
  /** Upper bound on boundary length — used by batch encoding to find a safe
    * symbol-aligned reuse point (Appendix B); `Int.MaxValue` disables reuse.
    */
  def maxBoundaryLen: Int
}

object Scheme {
  case object SingleChar extends Scheme { val name = "Single-Char"; val maxBoundaryLen = 1 }
  case object DoubleChar extends Scheme { val name = "Double-Char"; val maxBoundaryLen = 2 }
  final case class NGrams(n: Int, dictSizeLimit: Int) extends Scheme {
    require(n >= 2 && n <= 8)
    val name = s"$n-Grams(${dictSizeLimit})"
    val maxBoundaryLen: Int = n
  }
  final case class Alm(dictSizeLimit: Int, maxSymbolLen: Int = 16) extends Scheme {
    require(maxSymbolLen >= 1)
    val name = s"ALM(${dictSizeLimit})"
    val maxBoundaryLen: Int = Int.MaxValue
  }
  final case class AlmImproved(dictSizeLimit: Int, maxSymbolLen: Int = 32) extends Scheme {
    require(maxSymbolLen >= 1)
    val name = s"ALM-Improved(${dictSizeLimit})"
    val maxBoundaryLen: Int = Int.MaxValue
  }

  /** Does the scheme assign Hu-Tucker codes (vs. fixed-length)? Table 1. */
  def usesHuTucker(s: Scheme): Boolean = s match {
    case Alm(_, _) => false
    case _         => true
  }
}

/** Symbol Selector module (§4.2): counts pattern statistics over the sampled
  * keys and emits the scheme's extra interval boundaries. Interval division
  * itself is uniform ([[Axis.buildIntervals]]).
  */
object SymbolSelect {

  /** Scheme-specific extra boundaries (beyond the 256 single bytes). The
    * variable-interval schemes differ only in the windows they count and in
    * ALM's blend; each selected symbol brings its increment as a boundary.
    */
  def extraBoundaries(scheme: Scheme, samples: Array[Array[Byte]]): Seq[Array[Byte]] = {
    def withIncrements(limit: Int, counts: Iterable[(String, Long)]): Seq[Array[Byte]] =
      topSymbols(counts, math.max(1, (limit - 256) / 2)).flatMap(s => s +: Axis.inc(s).toSeq)
    scheme match {
      case Scheme.SingleChar => Nil
      case Scheme.DoubleChar =>
        // all 2-byte strings: fixed-length intervals, boundaries are implied
        val out = new Array[Array[Byte]](65536)
        var i = 0
        while (i < 65536) { out(i) = Array(((i >> 8) & 0xff).toByte, (i & 0xff).toByte); i += 1 }
        scala.collection.immutable.ArraySeq.unsafeWrapArray(out)
      case Scheme.NGrams(n, limit) =>
        withIncrements(limit, windowCounts(samples, n, nGramLens(n)))
      case Scheme.Alm(limit, maxLen) =>
        withIncrements(limit, blend(windowCounts(samples, maxLen, almLens)))
      case Scheme.AlmImproved(limit, maxLen) =>
        // No blending: ALM needs it because its interval divider cannot take
        // nested symbols, but the uniform axis builder handles prefix-nested
        // boundaries natively, so keeping frequent prefix symbols (instead of
        // zeroing them onto a rare long extension) strictly helps CPR — this
        // is part of why ALM-Improved dominates ALM (DESIGN.md §3).
        withIncrements(limit, windowCounts(samples, maxLen, ladderLens))
    }
  }

  /** Truncation lengths for ALM-Improved's suffix statistics: a geometric
    * ladder instead of every length, preserving the paper's build-time
    * reduction while keeping short frequent patterns in the candidate set.
    */
  private val SuffixLens = Array(1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32)

  /** The window lengths each scheme counts where `r` bytes are left (the
    * `lensAt` of [[windowCounts]]): n-Grams `{n}` when `r == n`, ALM every
    * length `1..r`, ALM-Improved the suffix ladder below `r` plus `r` itself.
    */
  def nGramLens(n: Int): Int => Array[Int] = r => if (r == n) Array(n) else Array.emptyIntArray
  val almLens: Int => Array[Int] = r => Array.range(1, r + 1)
  val ladderLens: Int => Array[Int] = r => SuffixLens.filter(_ < r) :+ r

  /** Window statistics, the one counter of every variable-interval scheme:
    * at each offset `i` of each sample, with `r = min(maxLen, k.length − i)`
    * bytes left, count the windows at `i` whose lengths are in `lensAt(r)`
    * (§3.3; ladder deviation documented in DESIGN.md). `lensAt` is tabulated
    * once per call. Windows are keyed as ISO-8859-1 strings, whose order is
    * unsigned byte order.
    */
  def windowCounts(samples: Array[Array[Byte]], maxLen: Int,
                   lensAt: Int => Array[Int]): mutable.HashMap[String, Long] = {
    val lens = Array.tabulate(maxLen)(r => lensAt(r + 1))
    val m = mutable.HashMap.empty[String, Long]
    samples.foreach { k =>
      var i = 0
      while (i < k.length) {
        val at = lens(math.min(maxLen, k.length - i) - 1)
        var j = 0
        while (j < at.length) {
          val s = new String(k, i, at(j), java.nio.charset.StandardCharsets.ISO_8859_1)
          m.update(s, m.getOrElse(s, 0L) + 1L)
          j += 1
        }
        i += 1
      }
    }
    m
  }

  /** ALM *blending* (§4.2): redistribute the count of every symbol that is a
    * proper prefix of other symbols to its longest extension (the first in
    * order on ties), so the selected symbol set satisfies the prefix
    * property. A longest extension has no extensions itself, so no mass
    * moves twice and one pass suffices: right to left over the sorted
    * symbols, a stack holds the closed subtrees to the right as (root,
    * longest symbol in it), and a symbol's extensions are exactly the
    * subtrees on top of the stack whose roots it prefixes.
    */
  def blend(counts: mutable.HashMap[String, Long]): Seq[(String, Long)] = {
    val arr = counts.keysIterator.toArray.sorted
    val cnt = arr.map(counts(_))
    val roots = new Array[Int](arr.length)
    val longest = new Array[Int](arr.length)
    var top = 0
    var i = arr.length - 1
    while (i >= 0) {
      var tgt = -1
      while (top > 0 && arr(roots(top - 1)).startsWith(arr(i))) {
        top -= 1
        // subtrees pop left to right: replace only on strictly longer
        if (tgt < 0 || arr(longest(top)).length > arr(tgt).length) tgt = longest(top)
      }
      if (tgt >= 0) { cnt(tgt) += cnt(i); cnt(i) = 0 }
      roots(top) = i
      longest(top) = if (tgt >= 0) tgt else i
      top += 1
      i -= 1
    }
    arr.iterator.zip(cnt.iterator).filter(_._2 > 0).toSeq
  }

  /** The `k` symbols with the largest len(s)·freq(s) product, ties in
    * string order (the paper binary-searches ALM's threshold W to the same
    * effect). For n-grams the length is constant, so this is top-k by count.
    */
  def topSymbols(counts: Iterable[(String, Long)], k: Int): Seq[Array[Byte]] =
    counts.toSeq
      .sortBy { case (s, c) => (-(s.length.toLong * c), s) }
      .take(k)
      .map { case (s, _) => Bytes.of(s) }

  /** Test-encode the samples against the intervals to obtain the per-entry
    * access counts that drive code assignment (§4.2 Symbol Selector output).
    */
  def hitCounts(samples: Array[Array[Byte]], iv: IntervalSet, index: DictIndex): Array[Long] = {
    val hits = new Array[Long](iv.size)
    val lens = iv.symbolLens
    samples.foreach { k =>
      var off = 0
      while (off < k.length) {
        val e = index.lookup(k, off)
        hits(e) += 1
        off += lens(e)
      }
    }
    hits
  }
}

/** Code Assigner module (§4.2). */
object CodeAssign {

  /** Monotone fixed-length codes: i encoded in ⌈log₂N⌉ bits. */
  def fixedLength(n: Int): Array[HuTucker.Code] = {
    val w = math.max(1, 32 - Integer.numberOfLeadingZeros(n - 1))
    Array.tabulate(n)(i => HuTucker.Code(i.toLong, w))
  }

  /** Optimal order-preserving prefix codes from access counts, computed by
    * `HuTucker` (Garsia–Wachs; ~0.5–5 ms for 8K–65K entries). Unseen
    * intervals get a small additive weight so they stay encodable (dictionary
    * completeness) at bounded depth; the total smoothing mass is capped at
    * ~5% of the observed mass so large dictionaries built from small samples
    * (e.g. Double-Char's 65 792 entries) don't drown the real statistics.
    * The many equal smoothed weights make ties common; any optimal code
    * among the tied ones may be returned.
    */
  def huTucker(hits: Array[Long]): Array[HuTucker.Code] = {
    val total = hits.foldLeft(0L)(_ + _).toDouble
    val delta = if (total <= 0) 1.0 else math.max(1e-6, 0.05 * total / hits.length)
    HuTucker.assign(hits.map(_.toDouble + delta))
  }
}
