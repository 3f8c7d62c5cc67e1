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
  * labels and the same words of `inner` mark which of those children have
  * children of their own (LOUDS-Dense D-HasChild). Childless children are not
  * stored.
  *
  * Every stored node owns `k + 1` consecutive slots of `fences`, for its `k`
  * labels: slot `i` is the first entry of the subtree under the `i`-th label,
  * and the extra last slot is one past the node's last entry. So the child
  * under a label covers the entries from its own slot up to the next slot − 1.
  * A boundary ending exactly at a node is that subtree's first entry, so it
  * needs no field of its own.
  *
  * `fenceBase(n)` is the node's first fence slot and `innerBase(n)` the id of
  * its first inner child. Bytes `4n + w` of `fenceCum` and `innerCum` hold
  * the popcount of the bitmap words below `w` (at most 192, read unsigned),
  * so ranking a label reads a base, one prefix count and one word.
  *
  * Floor lookup reads the root slot, then walks at most `maxDepth − 1`
  * stored levels and ends in one of three ways: on a childless child (its
  * first entry is the answer), on a missing label (the answer is the entry
  * just below the next child's subtree, or the node's last entry), or at the
  * end of the key (the entry just below the node's first child: the boundary
  * that ends at the node, if any).
  */
final class BitmapTrie private (
    root: Array[Int],       // 256 slots: child id, or ~entry of a childless child
    labels: Array[Long],    // 4 words per stored node
    inner: Array[Long],     // 4 words per stored node
    fenceBase: Array[Int],  // 1 per stored node
    innerBase: Array[Int],  // 1 per stored node
    fenceCum: Array[Byte],  // 4 per stored node
    innerCum: Array[Byte],  // 4 per stored node
    fences: Array[Int],     // labels + 1 per stored node
    val maxDepth: Int,
) extends DictIndex {

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
      val slot = fenceBase(node) + (fenceCum(w) & 0xff) + java.lang.Long.bitCount(l & below)
      // no child at `b`: every subtree before `slot` is below the key
      if ((l & bit) == 0) return fences(slot) - 1
      val in = inner(w)
      if ((in & bit) == 0) return fences(slot)
      node = innerBase(node) + (innerCum(w) & 0xff) + java.lang.Long.bitCount(in & below)
      pos += 1
    }
    fences(fenceBase(node)) - 1
  }

  override def memoryBytes: Long =
    8L * (labels.length + inner.length) +
      4L * (root.length + fenceBase.length + innerBase.length + fences.length) +
      fenceCum.length + innerCum.length

  /** Nodes of the trie, childless ones included: the root plus one per edge. */
  def nodeCount: Int = 1 + root.length + fences.length - fenceBase.length
}

object BitmapTrie {

  /** Build from the sorted boundary array (lengths ≤ maxDepth), which must
    * hold every single byte, as every [[Axis.buildIntervals]] set does.
    */
  def apply(boundaries: Array[Array[Byte]], maxDepth: Int): BitmapTrie = {
    require(boundaries.forall(_.length <= maxDepth), s"boundary longer than $maxDepth")
    val root      = new Array[Int](256)
    val labels    = new ArrayBuffer[Long]()
    val inner     = new ArrayBuffer[Long]()
    val fenceBase = new ArrayBuffer[Int]()
    val innerBase = new ArrayBuffer[Int]()
    val fenceCum  = new ArrayBuffer[Byte]()
    val innerCum  = new ArrayBuffer[Byte]()
    val fences    = new ArrayBuffer[Int]()

    // BFS queue of the root and the stored nodes: (entry range [lo, hi), depth)
    final case class Task(lo: Int, hi: Int, depth: Int)
    val queue = scala.collection.mutable.Queue(Task(0, boundaries.length, 0))
    var nodes = 0 // stored ids handed out so far
    var rootLabels = 0
    while (queue.nonEmpty) {
      val Task(lo, hi, depth) = queue.dequeue()
      val atRoot = depth == 0
      val id = labels.length / 4
      if (!atRoot) {
        labels ++= Seq(0L, 0L, 0L, 0L)
        inner ++= Seq(0L, 0L, 0L, 0L)
        fenceBase += fences.length
        innerBase += nodes
      }
      var i = lo
      if (i < hi && boundaries(i).length == depth) i += 1 // the boundary ending here
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
          fences += i
          if (hasChildren) inner(id * 4 + (b >>> 6)) |= 1L << b
        }
        if (hasChildren) {
          queue.enqueue(Task(i, j, depth + 1))
          nodes += 1
        }
        i = j
      }
      if (atRoot) require(rootLabels == 256, s"the boundaries hold $rootLabels of the 256 single bytes")
      else {
        fences += hi
        var w = 0
        var f = 0
        var c = 0
        while (w < 4) {
          fenceCum += f.toByte
          innerCum += c.toByte
          f += java.lang.Long.bitCount(labels(id * 4 + w))
          c += java.lang.Long.bitCount(inner(id * 4 + w))
          w += 1
        }
      }
    }
    new BitmapTrie(root, labels.toArray, inner.toArray, fenceBase.toArray, innerBase.toArray,
      fenceCum.toArray, innerCum.toArray, fences.toArray, maxDepth)
  }
}
