package repro.surf

import scala.collection.mutable.ArrayBuffer

import repro.core.Bytes

/** SuRF — the Succinct Range Filter [Zhang et al., SIGMOD'18] on which the
  * paper's Figure 10/11 experiments run. This reproduction uses LOUDS-SPARSE
  * throughout (see DESIGN.md §3): the trie stores each key's minimal
  * distinguishing prefix; four level-ordered arrays encode it —
  *
  *   labels[i]   branch byte of entry i
  *   hasChild[i] 1 ⇒ entry i points to a sub-trie, 0 ⇒ leaf
  *   louds[i]    1 ⇒ entry i is the first entry of its node
  *   isTerm[i]   1 ⇒ entry i marks a key ending at this node (prefix key);
  *               terminal entries sort before real labels within a node
  *
  * Leaves optionally keep `suffixBits` real key bits (SuRF-Real) to cut the
  * false-positive rate (Figure 11). Queries: approximate membership
  * (`mayContain`) and range emptiness (`mayContainRange`) with one-sided
  * error — no false negatives, verified by tests.
  */
final class Surf private (
    labels: Array[Byte],
    hasChild: BitVec,
    louds: BitVec,
    isTerm: BitVec,
    suffixes: Array[Byte],
    val suffixBits: Int,
    val keyCount: Int,
    val avgLeafDepth: Double,
    height: Int, // labels on the longest root-to-leaf path
) {

  private val n = labels.length

  /** End (exclusive) of the node whose first entry is `start`. */
  private def nodeEnd(start: Int): Int = louds.nextSetBit(start + 1)

  /** First real (non-terminal) entry of the node `[pos, end)` whose label is
    * ≥ `b` (unsigned), or `end`; labels within a node are sorted.
    */
  private def seek(pos: Int, end: Int, b: Int): Int = {
    var i = if (isTerm.get(pos)) pos + 1 else pos
    while (i < end && (labels(i) & 0xff) < b) i += 1
    i
  }

  /** Child node start position for entry i (requires hasChild(i)). */
  private def childStart(i: Int): Int = louds.select1(hasChild.rank1(i + 1) + 1)

  /** Suffix-store index for leaf entry i (requires !hasChild(i)). */
  private def leafIdx(i: Int): Int = hasChild.rank0(i + 1) - 1

  /** Approximate membership test — one-sided error (false positives only). */
  def mayContain(key: Array[Byte]): Boolean = {
    var pos = 0
    var depth = 0
    while (true) {
      if (depth == key.length) return isTerm.get(pos) // terminal is first entry
      val end = nodeEnd(pos)
      val found = seek(pos, end, key(depth) & 0xff)
      if (found == end || labels(found) != key(depth)) return false
      if (hasChild.get(found)) { pos = childStart(found); depth += 1 }
      else {
        if (suffixBits == 0) return true
        return (suffixes(leafIdx(found)) & 0xff) == Surf.keySuffix(key, depth + 1, suffixBits)
      }
    }
    false
  }

  /** Range emptiness test over [lo, hi] — may return true spuriously, never
    * false when a stored key is inside the range.
    */
  def mayContainRange(lo: Array[Byte], hi: Array[Byte]): Boolean = {
    val path = new Array[Byte](height)
    val len = lowerBound(0, lo, 0, path)
    // path ≤ hi (a prefix counts as ≤): truncated stored keys compare
    // optimistically, preserving one-sided error; a path that strictly
    // extends hi means the real key is > hi
    len >= 0 && java.util.Arrays.compareUnsigned(path, 0, len, hi, 0, hi.length) <= 0
  }

  /** Writes to `path(depth ..)` the labels of the smallest stored (truncated)
    * key ≥ `lo` in the node starting at `pos`, whose labels are byte `depth`
    * of the key, and returns that key's length; −1 if every key there is
    * < `lo`. Truncation errs low, keeping the filter sound.
    */
  private def lowerBound(pos: Int, lo: Array[Byte], depth: Int, path: Array[Byte]): Int = {
    if (depth == lo.length) return leftmost(pos, depth, path) // whole node ≥ lo
    val end = nodeEnd(pos)
    // seek skips the terminal entry (its key is a proper prefix of lo, hence < lo)
    var i = seek(pos, end, lo(depth) & 0xff)
    if (i < end && labels(i) == lo(depth)) {
      path(depth) = labels(i)
      val len =
        if (hasChild.get(i)) lowerBound(childStart(i), lo, depth + 1, path)
        // truncated leaf matching lo's prefix: compare suffix bits if any
        else if (suffixBits == 0 ||
          (suffixes(leafIdx(i)) & 0xff) >= Surf.keySuffix(lo, depth + 1, suffixBits)) depth + 1
        else -1
      if (len >= 0) return len
      i += 1 // every key below label b is < lo: advance to the next label
    }
    if (i < end) leftmost(i, depth, path) else -1
  }

  /** Writes to `path(depth ..)` the labels of the smallest stored key at or
    * below entry `i`, whose label is byte `depth`, and returns its length.
    */
  private def leftmost(i: Int, depth: Int, path: Array[Byte]): Int =
    if (isTerm.get(i)) depth
    else {
      path(depth) = labels(i)
      if (hasChild.get(i)) leftmost(childStart(i), depth + 1, path) else depth + 1
    }

  /** Filter size in bytes: labels + 3 bit vectors + suffix store — the ~10
    * bits/node succinct accounting of the paper.
    */
  def memoryBytes: Long = {
    val bits = 8L * n + hasChild.memoryBits + louds.memoryBits + isTerm.memoryBits +
      suffixBits.toLong * (hasChild.rank0(n) + 0L)
    (bits + 7) / 8
  }

  def entryCount: Int = n
}

object Surf {

  /** First `suffixBits` bits of `key` starting at byte `from`, zero-padded. */
  private def keySuffix(key: Array[Byte], from: Int, suffixBits: Int): Int = {
    var v = 0
    var i = 0
    while (i < suffixBits) {
      val bitPos = (from << 3) + i
      val b = if ((bitPos >>> 3) < key.length) (key(bitPos >>> 3) >>> (7 - (bitPos & 7))) & 1 else 0
      v = (v << 1) | b
      i += 1
    }
    v
  }

  /** Build from sorted, distinct keys, keeping `suffixBits` ∈ 0…8 real key
    * bits per leaf (the Figure 11 sweep; we store one byte and mask).
    *
    * @throws IllegalArgumentException if the keys are not strictly
    *   ascending, naming the first key that is not above the one before it
    */
  def apply(sortedKeys: Array[Array[Byte]], suffixBits: Int = 0): Surf = {
    require(0 <= suffixBits && suffixBits <= 8, s"suffixBits must be in 0..8, got $suffixBits")
    for (i <- 1 until sortedKeys.length)
      require(Bytes.compare(sortedKeys(i - 1), sortedKeys(i)) < 0,
        s"keys must be sorted and distinct: key $i (${Bytes.hex(sortedKeys(i))}) " +
          s"is not above key ${i - 1} (${Bytes.hex(sortedKeys(i - 1))})")
    val labels = new ArrayBuffer[Byte]
    val hasChildB = new ArrayBuffer[Boolean]
    val loudsB = new ArrayBuffer[Boolean]
    val isTermB = new ArrayBuffer[Boolean]
    val sufB = new ArrayBuffer[Byte]
    var depthSum = 0L
    var leafCnt = 0L
    var height = 0

    final case class Task(lo: Int, hi: Int, depth: Int)
    val queue = scala.collection.mutable.Queue(Task(0, sortedKeys.length, 0))

    while (queue.nonEmpty) {
      val Task(lo, hi, depth) = queue.dequeue()
      var first = true
      var i = lo
      // terminal: a key that ends exactly at this node
      if (i < hi && sortedKeys(i).length == depth) {
        labels += 0; hasChildB += false; loudsB += first; isTermB += true
        sufB += 0
        depthSum += depth; leafCnt += 1
        first = false
        i += 1
      }
      while (i < hi) {
        val b = sortedKeys(i)(depth)
        var j = i + 1
        while (j < hi && sortedKeys(j)(depth) == b) j += 1
        labels += b
        loudsB += first
        isTermB += false
        first = false
        height = math.max(height, depth + 1)
        if (j - i == 1) {
          hasChildB += false
          sufB += keySuffix(sortedKeys(i), depth + 1, suffixBits).toByte
          depthSum += depth + 1; leafCnt += 1
        } else {
          hasChildB += true
          queue.enqueue(Task(i, j, depth + 1))
        }
        i = j
      }
      // an empty key set cannot reach here: every task has ≥ 1 key
      require(!first, "node with no entries")
    }

    val n = labels.length
    val hasChild = new BitVec(n)
    val louds = new BitVec(n)
    val isTerm = new BitVec(n)
    val suffixes = new Array[Byte](sufB.length)
    var k = 0
    var si = 0
    while (k < n) {
      if (hasChildB(k)) hasChild.set(k)
      else { suffixes(si) = sufB(si); si += 1 }
      if (loudsB(k)) louds.set(k)
      if (isTermB(k)) isTerm.set(k)
      k += 1
    }
    hasChild.build(); louds.build(); isTerm.build()
    new Surf(labels.toArray, hasChild, louds, isTerm, suffixes, suffixBits,
      sortedKeys.length, if (leafCnt == 0) 0 else depthSum.toDouble / leafCnt, height)
  }
}
