package repro.core

import scala.collection.mutable.ArrayBuffer

/** The bitmap-trie dictionary of §4.2/Figure 6, used by 3-Grams and 4-Grams,
  * in a leaf-free layout after SuRF's LOUDS-Dense (Zhang et al., SIGMOD'18).
  *
  * The root is one 256-slot table: completeness puts every single byte among
  * the boundaries, so the root has all 256 labels and needs no bitmap. Slot
  * `b` holds the id of the child under `b`, or `~e` when that child is
  * childless and its first entry is `e`.
  *
  * Below the root, only nodes with children are stored, numbered in BFS
  * order from 0, so the inner children of a node are contiguous. Per node
  * `n`, words `4n .. 4n+3` of `labels` are the 256-bit bitmap of its branch
  * labels, and byte `4n + w` of `labelCum` holds the popcount of its words
  * below `w` (at most 192, read unsigned). So ranking a label reads one
  * prefix count and one word. Childless children are not stored.
  *
  * Stored nodes are of two kinds. BFS order puts the last level (depth
  * `maxDepth − 1`) after every upper node, so ids from `lastLevel` on are
  * last-level nodes.
  *
  *  - An upper node `n` also has a has-child bitmap (LOUDS-Dense D-HasChild)
  *    in words `4n .. 4n+3` of `inner`, with its prefix counts in `innerCum`,
  *    and `innerBase(n)`, the id of its first inner child. It owns `k + 1`
  *    consecutive slots of `fences` from `base(n)` on, for its `k` labels:
  *    slot `i` is the first entry of the subtree under the `i`-th label, and
  *    the extra last slot is one past the node's last entry. So the child
  *    under a label covers the entries from its own slot up to the next
  *    slot − 1. A boundary ending exactly at a node is that subtree's first
  *    entry, so it needs no field of its own.
  *  - A last-level node's children are all childless and hold one entry
  *    each, in label order. So it keeps only its label bitmap, its counts
  *    and `base(n)`, the entry of its first child: the child of rank `i` is
  *    entry `base(n) + i`, and one past its last entry is `base(n) + k`.
  *
  * Floor lookup reads the root slot, then walks at most `maxDepth − 1`
  * stored levels and ends in one of three ways: on a childless child (its
  * first entry is the answer), on a missing label (the answer is the entry
  * just below the next child's subtree, or the node's last entry), or at the
  * end of the key (the entry just below the node's first child: the boundary
  * that ends at the node, if any). At a last-level node the first two are
  * `base + rank` and `base + rank − 1`, with `rank` the node's labels below
  * the byte, and the third is `base − 1`: no fence load, no has-child test.
  */
final class BitmapTrie private (
    root: Array[Int],       // 256 slots: child id, or ~entry of a childless child
    labels: Array[Long],    // 4 words per stored node
    labelCum: Array[Byte],  // 4 per stored node
    base: Array[Int],       // 1 per stored node: first fence slot, or first child's entry
    inner: Array[Long],     // 4 words per upper node
    innerCum: Array[Byte],  // 4 per upper node
    innerBase: Array[Int],  // 1 per upper node
    fences: Array[Int],     // labels + 1 per upper node
    val maxDepth: Int,
) extends DictIndex {

  /** Id of the first last-level node: the number of upper nodes. */
  private val lastLevel = innerBase.length

  override def lookup(key: Array[Byte], off: Int): Int = {
    val r = root(key(off) & 0xff)
    if (r < 0) return ~r
    var node = r
    var pos = off + 1
    while (pos < key.length) {
      val b = key(pos)
      val w = (node << 2) + ((b & 0xff) >>> 6)
      val bit = 1L << b // a shift counts only the low 6 bits of `b`
      val below = bit - 1
      val l = labels(w)
      val slot = base(node) + (labelCum(w) & 0xff) + java.lang.Long.bitCount(l & below)
      // the label's entry, or the one below it when the label is missing
      if (node >= lastLevel) return slot + ((l >>> b).toInt & 1) - 1
      // no child at `b`: every subtree before `slot` is below the key
      if ((l & bit) == 0) return fences(slot) - 1
      val in = inner(w)
      if ((in & bit) == 0) return fences(slot)
      node = innerBase(node) + (innerCum(w) & 0xff) + java.lang.Long.bitCount(in & below)
      pos += 1
    }
    if (node >= lastLevel) base(node) - 1 else fences(base(node)) - 1
  }

  override def memoryBytes: Long =
    8L * (labels.length + inner.length) +
      4L * (root.length + base.length + innerBase.length + fences.length) +
      labelCum.length + innerCum.length

  /** Nodes of the trie, childless ones included: the root plus one per edge. */
  def nodeCount: Int = 1 + root.length + labels.iterator.map(java.lang.Long.bitCount).sum
}

object BitmapTrie {

  /** Build from the sorted boundary array (lengths ≤ maxDepth), which must
    * hold every single byte, as every [[Axis.buildIntervals]] set does.
    */
  def apply(boundaries: Array[Array[Byte]], maxDepth: Int): BitmapTrie = {
    require(boundaries.forall(_.length <= maxDepth), s"boundary longer than $maxDepth")
    val root      = new Array[Int](256)
    val labels    = new ArrayBuffer[Long]()
    val labelCum  = new ArrayBuffer[Byte]()
    val base      = new ArrayBuffer[Int]()
    val inner     = new ArrayBuffer[Long]()
    val innerCum  = new ArrayBuffer[Byte]()
    val innerBase = new ArrayBuffer[Int]()
    val fences    = new ArrayBuffer[Int]()

    /** Popcounts of the four words from `from` below each word. */
    def cumulative(words: ArrayBuffer[Long], from: Int, into: ArrayBuffer[Byte]): Unit = {
      var c = 0
      for (w <- 0 until 4) {
        into += c.toByte
        c += java.lang.Long.bitCount(words(from + w))
      }
    }

    // BFS queue of the root and the stored nodes: (entry range [lo, hi), depth)
    final case class Task(lo: Int, hi: Int, depth: Int)
    val queue = scala.collection.mutable.Queue(Task(0, boundaries.length, 0))
    var nodes = 0 // stored ids handed out so far
    var rootLabels = 0
    while (queue.nonEmpty) {
      val Task(lo, hi, depth) = queue.dequeue()
      val atRoot = depth == 0
      val last = depth == maxDepth - 1
      val id = labels.length / 4
      var i = lo
      if (i < hi && boundaries(i).length == depth) i += 1 // the boundary ending here
      if (!atRoot) {
        labels ++= Seq(0L, 0L, 0L, 0L)
        if (last) base += i
        else {
          inner ++= Seq(0L, 0L, 0L, 0L)
          base += fences.length
          innerBase += nodes
        }
      }
      // group the remaining boundaries by their byte at `depth`
      while (i < hi) {
        val b = boundaries(i)(depth) & 0xff
        var j = i + 1
        while (j < hi && (boundaries(j)(depth) & 0xff) == b) j += 1
        val hasChildren = j - i > 1 || boundaries(i).length > depth + 1
        if (atRoot) {
          root(b) = if (hasChildren) nodes else ~i
          rootLabels += 1
        } else {
          labels(id * 4 + (b >>> 6)) |= 1L << b
          if (!last) {
            fences += i
            if (hasChildren) inner(id * 4 + (b >>> 6)) |= 1L << b
          }
        }
        if (hasChildren) {
          queue.enqueue(Task(i, j, depth + 1))
          nodes += 1
        }
        i = j
      }
      if (atRoot) require(rootLabels == 256, s"the boundaries hold $rootLabels of the 256 single bytes")
      else {
        cumulative(labels, id * 4, labelCum)
        if (!last) {
          fences += hi
          cumulative(inner, id * 4, innerCum)
        }
      }
    }
    new BitmapTrie(root, labels.toArray, labelCum.toArray, base.toArray, inner.toArray,
      innerCum.toArray, innerBase.toArray, fences.toArray, maxDepth)
  }
}
