package repro.core

/** Per-thread encoder state. Codes are packed into `acc`, right-aligned:
  * its low `pos & 63` bits are the ones after the last whole word, which
  * `words(0 until pos >>> 6)` hold (bits above those in `acc` are stale and
  * are shifted out on the next flush). `tails` serve `encodeTerminated`.
  */
private[core] final class EncodeScratch {
  var words: Array[Long] = new Array[Long](32)
  var acc: Long = 0L
  var pos: Int = 0
  private val tails = Array.tabulate(9)(new Array[Byte](_)) // n-Grams need n ≤ 8
  def tail(n: Int): Array[Byte] = if (n < tails.length) tails(n) else new Array[Byte](n)

  /** Grows `words` to hold `bits` bits, keeping the words flushed so far. */
  def reserve(bits: Long): Unit = {
    val need = (bits >>> 6).toInt + 1
    if (need > words.length) words = java.util.Arrays.copyOf(words, math.max(need, 2 * words.length))
  }
}

/** One dictionary kind's encode loop, chosen once when a [[BuiltHope]] is
  * built. `emit` encodes the symbols of `key` from offset `from` on while
  * they start below `until`, appends their codes to `s` and returns the
  * offset after the last one. The caller reserves room for every code.
  *
  * `lens(e)` packs entry `e`'s symbol length (bits 8 and up) and code length
  * (low 8 bits), so one load after each lookup gives both.
  */
private[core] sealed abstract class EncodeKernel extends Serializable {
  def emit(s: EncodeScratch, key: Array[Byte], from: Int, until: Int): Int
}

private[core] object EncodeKernel {

  def apply(index: DictIndex, codes: Array[Long], lens: Array[Int]): EncodeKernel = index match {
    case _: SingleCharIndex => new SingleChar(codes, lens)
    case _: DoubleCharIndex => new DoubleChar(codes, lens)
    case t: BitmapTrie      => new NGrams(t, codes, lens)
    case _                  => new General(index, codes, lens)
  }

  /** Appends the `len`-bit `code` (0 ≤ len ≤ 64, no bits set above `len`)
    * at bit `pos` and returns the new accumulator; a word that fills up is
    * stored to `words`. The flush shifts twice because a JVM shift by 64 is
    * a shift by 0.
    */
  def put(words: Array[Long], acc: Long, pos: Int, code: Long, len: Int): Long = {
    val room = 64 - (pos & 63)
    if (len < room) (acc << len) | code
    else {
      words(pos >>> 6) = (acc << 1 << (room - 1)) | (code >>> (len - room))
      code
    }
  }

  /** Single-Char: the entry is the byte, every symbol one byte. */
  private final class SingleChar(codes: Array[Long], lens: Array[Int]) extends EncodeKernel {
    def emit(s: EncodeScratch, key: Array[Byte], from: Int, until: Int): Int = {
      val words = s.words
      var acc = s.acc
      var pos = s.pos
      var off = from
      while (off < until) {
        val e = key(off) & 0xff
        val len = lens(e) & 0xff
        acc = put(words, acc, pos, codes(e), len)
        pos += len
        off += 1
      }
      s.acc = acc
      s.pos = pos
      off
    }
  }

  /** Double-Char: two bytes `b c` are entry `257b + 1 + c`; a last lone byte
    * `b` is entry `257b` (see [[DoubleCharIndex]]).
    */
  private final class DoubleChar(codes: Array[Long], lens: Array[Int]) extends EncodeKernel {
    def emit(s: EncodeScratch, key: Array[Byte], from: Int, until: Int): Int = {
      val words = s.words
      var acc = s.acc
      var pos = s.pos
      var off = from
      while (off < until) {
        val two = off + 1 < key.length
        val e = (key(off) & 0xff) * 257 + (if (two) 1 + (key(off + 1) & 0xff) else 0)
        val len = lens(e) & 0xff
        acc = put(words, acc, pos, codes(e), len)
        pos += len
        off += (if (two) 2 else 1)
      }
      s.acc = acc
      s.pos = pos
      off
    }
  }

  /** n-Grams: the lookup `n` bytes on runs beside the one at `off`, and is
    * used when the first symbol is a whole n-gram and so ends right there.
    * The two lookups do not wait for each other, which halves the chain of
    * dependent lookups on keys made mostly of selected n-grams.
    */
  private final class NGrams(trie: BitmapTrie, codes: Array[Long], lens: Array[Int]) extends EncodeKernel {
    private val n = trie.maxDepth

    def emit(s: EncodeScratch, key: Array[Byte], from: Int, until: Int): Int = {
      val words = s.words
      var acc = s.acc
      var pos = s.pos
      var off = from
      while (off < until) {
        val next = off + n
        val e = trie.lookup(key, off)
        val e2 = if (next < until) trie.lookup(key, next) else 0
        var p = lens(e)
        acc = put(words, acc, pos, codes(e), p & 0xff)
        pos += p & 0xff
        off += p >>> 8
        if (off == next && next < until) {
          p = lens(e2)
          acc = put(words, acc, pos, codes(e2), p & 0xff)
          pos += p & 0xff
          off += p >>> 8
        }
      }
      s.acc = acc
      s.pos = pos
      off
    }
  }

  /** Any other dictionary (ALM and ALM-Improved's ART): one lookup per symbol. */
  private final class General(index: DictIndex, codes: Array[Long], lens: Array[Int]) extends EncodeKernel {
    def emit(s: EncodeScratch, key: Array[Byte], from: Int, until: Int): Int = {
      val words = s.words
      var acc = s.acc
      var pos = s.pos
      var off = from
      while (off < until) {
        val e = index.lookup(key, off)
        val p = lens(e)
        acc = put(words, acc, pos, codes(e), p & 0xff)
        pos += p & 0xff
        off += p >>> 8
      }
      s.acc = acc
      s.pos = pos
      off
    }
  }
}
