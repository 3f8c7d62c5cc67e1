package repro.core

import repro.art.ArtDictIndex

/** Build-phase timing breakdown (Figure 9): milliseconds spent in each module. */
final case class BuildStats(symbolSelectMs: Double, codeAssignMs: Double,
                            dictBuildMs: Double, entries: Int) extends Serializable

/** A built HOPE compressor: interval dictionary + codes + hot-path encoder.
  * Serializable so Spark can broadcast it to executors for per-partition
  * encoding (the build phase runs once; encoding keeps only per-thread
  * scratch space).
  */
final class BuiltHope(
    val scheme: Scheme,
    val intervals: IntervalSet,
    val index: DictIndex,
    val codes: Array[Long],
    val codeLens: Array[Int],
    val stats: BuildStats,
) extends Serializable {

  {
    // a code is packed as one 64-bit value; a longer one would corrupt the output
    val e = codeLens.indexWhere(l => l < 0 || l > 64)
    require(e < 0, s"entry $e (symbol ${Bytes.hex(intervals.symbols(e))}) has a " +
      s"${codeLens(e)}-bit code; the encoder packs at most 64 bits per code")
  }

  /** Longest code: with at least one byte per symbol, a key of `n` bytes
    * encodes to at most `n × maxCodeLen` bits.
    */
  private val maxCodeLen: Int = codeLens.foldLeft(0)(math.max)

  /** The encode loop of this dictionary kind, over the codes and, per entry,
    * symbol length `<< 8 |` code length.
    */
  private val kernel: EncodeKernel = EncodeKernel(index, codes,
    Array.tabulate(codes.length)(e => intervals.symbolLens(e) << 8 | codeLens(e)))

  /** Dictionary memory (structure + code/len arrays) for Figure 8 row 3 and
    * the tree-evaluation memory accounting (HOPE size included, §7.2).
    */
  def dictMemoryBytes: Long =
    index.memoryBytes +
      (if (index.storesCodes) 0L else codes.length.toLong * (4 + 1 + 1))

  def entries: Int = intervals.size

  /** Encode an arbitrary byte string (completeness guarantees progress). */
  def encode(key: Array[Byte]): Encoded = {
    val s = start(key.length)
    kernel.emit(s, key, 0, key.length)
    pack(s)
  }

  /** Encode `key` with a 0x00 terminator appended — the tree-integration
    * variant whose padded bytes are strictly order- and equality-faithful for
    * NUL-free keys (see [[Axis]] doc). The terminator is virtual: a lookup
    * with at least `maxBoundaryLen` bytes left cannot reach it, so only the
    * short tail is copied next to a real 0x00. For ALM schemes, whose
    * `maxBoundaryLen` is `Int.MaxValue`, the tail is the whole key.
    */
  def encodeTerminated(key: Array[Byte]): Encoded = {
    val s = start(key.length)
    val off = kernel.emit(s, key, 0, key.length - scheme.maxBoundaryLen + 1)
    val tail = s.tail(key.length - off + 1)
    System.arraycopy(key, off, tail, 0, tail.length - 1)
    tail(tail.length - 1) = 0
    kernel.emit(s, tail, 0, tail.length)
    pack(s)
  }

  /** Sorted-batch encoding (§4.2, Appendix B): each block encodes the shared
    * prefix once. A lookup at an offset ≤ LCP − maxBoundaryLen reads only the
    * block's common prefix, so every key of the block starts with the same
    * codes up to the symbol end after the last such lookup. That point is
    * checkpointed as the accumulator and bit count: the words flushed before
    * it are never written again, so each key resumes from there. ALM schemes
    * (`maxBoundaryLen` = `Int.MaxValue`) get no shared prefix, so no
    * benefit, matching the paper.
    */
  def encodeBatchSorted(keys: Array[Array[Byte]], batchSize: Int): Array[Encoded] = {
    val out = new Array[Encoded](keys.length)
    var blockStart = 0
    while (blockStart < keys.length) {
      val blockEnd = math.min(keys.length, blockStart + batchSize)
      val first = keys(blockStart)
      val s = start(first.length)
      val safeOff = kernel.emit(s, first, 0, Bytes.lcp(first, keys(blockEnd - 1)) - scheme.maxBoundaryLen + 1)
      val safeAcc = s.acc
      val safePos = s.pos
      var i = blockStart
      while (i < blockEnd) {
        reserve(s, keys(i).length)
        s.acc = safeAcc
        s.pos = safePos
        kernel.emit(s, keys(i), safeOff, keys(i).length)
        out(i) = pack(s)
        i += 1
      }
      blockStart = blockEnd
    }
    out
  }

  /** This thread's scratch, emptied, with room for a key of `n` bytes. */
  private def start(n: Int): EncodeScratch = {
    val s = BuiltHope.scratch.get()
    reserve(s, n)
    s.acc = 0L
    s.pos = 0
    s
  }

  /** Room in `s` for the codes of a key of `n` bytes plus a terminator. */
  private def reserve(s: EncodeScratch, n: Int): Unit = s.reserve((n + 1).toLong * maxCodeLen)

  /** Flushes the accumulator and copies the bits out, a whole big-endian
    * word at a time, zero-padded to a byte boundary.
    */
  private def pack(s: EncodeScratch): Encoded = {
    val words = s.words
    val bitLen = s.pos
    if ((bitLen & 63) != 0) words(bitLen >>> 6) = s.acc << (64 - (bitLen & 63))
    val out = new Array[Byte]((bitLen + 7) >>> 3)
    var i = 0
    while (i + 8 <= out.length) {
      BuiltHope.bigEndian.set(out, i, words(i >>> 3))
      i += 8
    }
    while (i < out.length) {
      out(i) = (words(i >>> 3) >>> (56 - ((i & 7) << 3))).toByte
      i += 1
    }
    Encoded(out, bitLen)
  }

  // ---------------------------------------------------------------- decoding

  /** The codes left-aligned to 64 bits, with the sign bit flipped so that
    * signed order is unsigned order. Alphabetic codes are prefix-free and
    * increase with the entry, so this array is sorted; built lazily (tests
    * and debugging only — search-tree queries never reconstruct keys, §4.1).
    */
  @transient private lazy val alignedCodes: Array[Long] =
    Array.tabulate(codes.length)(e => (codes(e) << (64 - codeLens(e))) ^ Long.MinValue)

  /** Lossless inverse of [[encode]] (entropy coding is lossless, §2). The
    * code at each position is the last one, in code order, that is not
    * above the next 64 bits of the stream.
    */
  def decode(enc: Encoded): Array[Byte] = {
    val out = new scala.collection.mutable.ArrayBuilder.ofByte
    var pos = 0
    while (pos < enc.bitLen) {
      val w = window(enc, pos)
      val i = java.util.Arrays.binarySearch(alignedCodes, w ^ Long.MinValue)
      val e = if (i >= 0) i else -i - 2
      require(e >= 0 && w >>> (64 - codeLens(e)) == codes(e), "invalid code stream")
      require(pos + codeLens(e) <= enc.bitLen, "truncated code stream")
      out ++= intervals.symbols(e)
      pos += codeLens(e)
    }
    out.result()
  }

  /** The 64 bits of `enc.bytes` from bit `pos` on, zero past the array's end. */
  private def window(enc: Encoded, pos: Int): Long = {
    def byteAt(j: Int): Long = if (j < enc.bytes.length) enc.bytes(j) & 0xffL else 0L
    val first = pos >>> 3
    var w = 0L
    var j = 0
    while (j < 8) { w = (w << 8) | byteAt(first + j); j += 1 }
    val shift = pos & 7
    if (shift > 0) w = (w << shift) | (byteAt(first + 8) >>> (8 - shift))
    w
  }
}

object BuiltHope {

  private val scratch: ThreadLocal[EncodeScratch] = ThreadLocal.withInitial(() => new EncodeScratch)

  /** Stores a `Long` into a byte array as 8 big-endian bytes. */
  private val bigEndian: java.lang.invoke.VarHandle =
    java.lang.invoke.MethodHandles.byteArrayViewVarHandle(classOf[Array[Long]], java.nio.ByteOrder.BIG_ENDIAN)
}

/** HOPE build phase (§4.1 Figure 5): Symbol Selector → Code Assigner →
  * Dictionary, with per-module timing for Figure 9.
  */
object Hope {

  def build(samples: Array[Array[Byte]], scheme: Scheme): BuiltHope = {
    val t0 = System.nanoTime()
    val extras = SymbolSelect.extraBoundaries(scheme, samples)
    val iv = Axis.buildIntervals(extras)
    val tSelect = System.nanoTime()

    val index = buildIndex(scheme, iv)
    val tDict = System.nanoTime()

    val hits = SymbolSelect.hitCounts(samples, iv, index)
    val tHits = System.nanoTime()

    val codeArr =
      if (Scheme.usesHuTucker(scheme)) CodeAssign.huTucker(hits)
      else CodeAssign.fixedLength(iv.size)
    val tAssign = System.nanoTime()

    // Paper's breakdown: Symbol Selector includes statistics + interval
    // division + test-encode; Dictionary is the structure population.
    val stats = BuildStats(
      symbolSelectMs = ((tSelect - t0) + (tHits - tDict)) / 1e6,
      codeAssignMs = (tAssign - tHits) / 1e6,
      dictBuildMs = (tDict - tSelect) / 1e6,
      entries = iv.size,
    )
    new BuiltHope(scheme, iv, index, codeArr.map(_.bits), codeArr.map(_.len), stats)
  }

  /** Dictionary structure per Table 1: array / bitmap-trie / ART. */
  def buildIndex(scheme: Scheme, iv: IntervalSet): DictIndex = scheme match {
    case Scheme.SingleChar      => new SingleCharIndex
    case Scheme.DoubleChar      => new DoubleCharIndex
    case Scheme.NGrams(n, _)    => BitmapTrie(iv.boundaries, n)
    case _: Scheme.Alm          => ArtDictIndex(iv.boundaries)
    case _: Scheme.AlmImproved  => ArtDictIndex(iv.boundaries)
  }

  /** Compression rate = uncompressed bytes / compressed bytes (bit-exact
    * numerator/denominator; the paper's Figure 8 row 1 metric).
    */
  def compressionRate(hope: BuiltHope, keys: Iterator[Array[Byte]]): Double = {
    var raw = 0L
    var encBits = 0L
    keys.foreach { k => raw += k.length; encBits += hope.encode(k).bitLen }
    raw.toDouble * 8 / encBits.toDouble
  }
}
