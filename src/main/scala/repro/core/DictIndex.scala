package repro.core

/** Hot-path dictionary lookup structure (§4.2 "Dictionary"): maps the suffix
  * of `key` starting at `off` to the index of the interval containing it —
  * i.e. the greatest boundary ≤ suffix ("floor" query). Implementations trade
  * lookup speed for generality; see Table 1 of the paper.
  */
trait DictIndex extends Serializable {
  /** Index of the interval containing `key[off..)`. `key[off..)` non-empty. */
  def lookup(key: Array[Byte], off: Int): Int
  /** Structure size for memory accounting. */
  def memoryBytes: Long
  /** True when [[memoryBytes]] already covers per-entry code storage (the
    * array dictionaries ARE the code table), so the wrapper must not add it
    * again.
    */
  def storesCodes: Boolean = false
}

/** Single-Char array dictionary: 256 fixed intervals, entry = first byte. */
final class SingleCharIndex extends DictIndex {
  override def lookup(key: Array[Byte], off: Int): Int = key(off) & 0xff
  // 256 entries × (8-bit len + 32-bit code) as in the paper's accounting.
  override def memoryBytes: Long = 256L * 5
  override def storesCodes: Boolean = true
}

/** Double-Char array dictionary: per first byte b, slot b·257 is the
  * single-char gap entry (the paper's b∅ interval, hit when the suffix is
  * exactly one byte) and slots b·257+1+c are the two-byte intervals [bc, bc+1).
  */
final class DoubleCharIndex extends DictIndex {
  override def lookup(key: Array[Byte], off: Int): Int = {
    val b = key(off) & 0xff
    if (off + 1 >= key.length) b * 257
    else b * 257 + 1 + (key(off + 1) & 0xff)
  }
  override def memoryBytes: Long = 257L * 256 * 5
  override def storesCodes: Boolean = true
}

/** Baseline floor lookup via binary search over the sorted boundaries — the
  * reference the paper's bitmap-trie is measured against (2.3× claim, §4.2).
  */
final class SortedArrayIndex(boundaries: Array[Array[Byte]]) extends DictIndex {
  override def lookup(key: Array[Byte], off: Int): Int = {
    var lo = 0
    var hi = boundaries.length - 1
    // invariant: boundaries(lo) <= suffix (b0 = 0x00 <= any non-empty suffix)
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (Bytes.compareSuffix(key, off, boundaries(mid)) >= 0) lo = mid else hi = mid - 1
    }
    lo
  }
  override def memoryBytes: Long =
    boundaries.map(b => 16L + b.length + 8L).sum // array header + bytes + slot ptr
}
