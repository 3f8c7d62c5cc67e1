package repro.surf

/** Append-built bit vector with O(1) rank and near-O(1) select, the building
  * block of the LOUDS-SPARSE trie. Rank uses per-word cumulative counts
  * (32 bits / 64 bits ≈ 50% overhead here; real SuRF uses sparser samples —
  * memory accounting uses the paper's ~6.25% figure, see [[memoryBits]]).
  * Select samples the word of every 64th set bit, which bounds its binary
  * search to the words between two samples.
  */
final class BitVec(val nbits: Int) {
  private val words = new Array[Long](math.max(1, (nbits + 63) >>> 6))
  private var ranks: Array[Int] = _
  private var selects: Array[Int] = _
  private var total = 0

  def set(i: Int): Unit = words(i >>> 6) |= 1L << (i & 63)

  def get(i: Int): Boolean = (words(i >>> 6) & (1L << (i & 63))) != 0

  /** Freeze and precompute the rank and select directories. Call once after
    * all sets.
    */
  def build(): Unit = {
    ranks = new Array[Int](words.length + 1)
    var i = 0
    while (i < words.length) {
      ranks(i + 1) = ranks(i) + java.lang.Long.bitCount(words(i))
      i += 1
    }
    total = ranks(words.length)
    // selects(j): the word holding the (64·j + 1)-th set bit
    selects = new Array[Int]((total + 63) >>> 6)
    var j = 0
    i = 0
    while (j < selects.length) {
      while (ranks(i + 1) <= (j << 6)) i += 1
      selects(j) = i
      j += 1
    }
  }

  def ones: Int = total

  /** Number of set bits in [0, i). */
  def rank1(i: Int): Int = {
    val w = i >>> 6
    var r = ranks(w)
    if ((i & 63) != 0) r += java.lang.Long.bitCount(words(w) & ((1L << (i & 63)) - 1))
    r
  }

  /** Number of clear bits in [0, i). */
  def rank0(i: Int): Int = i - rank1(i)

  /** Position of the k-th set bit (k ≥ 1). */
  def select1(k: Int): Int = {
    require(k >= 1 && k <= total, s"select1($k) out of range (total=$total)")
    // binary search the word whose cumulative rank reaches k, between the
    // words of the sampled ones just below and just above it
    val j = (k - 1) >>> 6
    var lo = selects(j)
    var hi = if (j + 1 < selects.length) selects(j + 1) else words.length - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (ranks(mid + 1) >= k) hi = mid else lo = mid + 1
    }
    var remaining = k - ranks(lo)
    var w = words(lo)
    val pos = lo << 6
    while (true) {
      val lsb = java.lang.Long.numberOfTrailingZeros(w)
      remaining -= 1
      if (remaining == 0) return pos + lsb
      w &= w - 1
    }
    -1
  }

  /** Position of the first set bit at or after `i`, or `nbits` if none. */
  def nextSetBit(i: Int): Int = {
    var w = i >>> 6
    if (w >= words.length) return nbits
    var word = words(w) & (-1L << (i & 63))
    while (word == 0) {
      w += 1
      if (w == words.length) return nbits
      word = words(w)
    }
    (w << 6) + java.lang.Long.numberOfTrailingZeros(word)
  }

  /** Succinct-accounting size: n bits payload + 6.25% rank directory. */
  def memoryBits: Long = nbits.toLong + (nbits.toLong >> 4)
}
