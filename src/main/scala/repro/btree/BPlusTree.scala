package repro.btree

import repro.core.Bytes
import scala.collection.mutable.ArrayBuffer

/** TLX-style in-memory B+tree (§5): string keys are stored outside the nodes
  * and referenced by pointer; the default fanout of 16 models the 256-byte
  * node of the paper (16 × 8-byte key pointer + 8-byte value/child pointer).
  *
  * Supports insert, point lookup, and ordered scans from a start key.
  */
class BPlusTree(val fanout: Int = 16) {
  require(fanout >= 4)

  protected final class LeafNode {
    val keys = new ArrayBuffer[Array[Byte]](fanout)
    val values = new ArrayBuffer[Long](fanout)
    var next: LeafNode = _
  }
  protected final class InnerNode {
    val keys = new ArrayBuffer[Array[Byte]](fanout) // separator i splits child i / i+1
    val children = new ArrayBuffer[AnyRef](fanout + 1)
  }

  protected var root: AnyRef = new LeafNode
  private var count = 0

  def size: Int = count

  /** Separator promoted when a leaf splits; Prefix B+tree shortens it. */
  protected def separator(leftLast: Array[Byte], rightFirst: Array[Byte]): Array[Byte] =
    rightFirst

  def insert(key: Array[Byte], value: Long): Unit = {
    val split = insertRec(root, key, value)
    if (split != null) {
      val r = new InnerNode
      r.keys += split._1
      r.children += root
      r.children += split._2
      root = r
    }
  }

  /** Returns (separator, newRightSibling) when the child split, else null. */
  private def insertRec(node: AnyRef, key: Array[Byte], value: Long): (Array[Byte], AnyRef) =
    node match {
      case l: LeafNode =>
        val i = lowerBound(l.keys, key)
        if (i < l.keys.length && Bytes.compare(l.keys(i), key) == 0) { l.values(i) = value; null }
        else {
          l.keys.insert(i, key); l.values.insert(i, value); count += 1
          if (l.keys.length <= fanout) null
          else {
            val mid = l.keys.length / 2
            val r = new LeafNode
            r.keys ++= l.keys.view.slice(mid, l.keys.length)
            r.values ++= l.values.view.slice(mid, l.values.length)
            l.keys.remove(mid, l.keys.length - mid)
            l.values.remove(mid, l.values.length - mid)
            r.next = l.next; l.next = r
            (separator(l.keys.last, r.keys.head), r)
          }
        }
      case in: InnerNode =>
        val i = upperBound(in.keys, key)
        val split = insertRec(in.children(i), key, value)
        if (split == null) null
        else {
          in.keys.insert(i, split._1)
          in.children.insert(i + 1, split._2)
          if (in.keys.length <= fanout) null
          else {
            val mid = in.keys.length / 2
            val sep = in.keys(mid)
            val r = new InnerNode
            r.keys ++= in.keys.view.slice(mid + 1, in.keys.length)
            r.children ++= in.children.view.slice(mid + 1, in.children.length)
            in.keys.remove(mid, in.keys.length - mid)
            in.children.remove(mid + 1, in.children.length - (mid + 1))
            (sep, r)
          }
        }
    }

  /** Point lookup; -1 when absent. */
  def get(key: Array[Byte]): Long = {
    var node = root
    while (true) {
      node match {
        case l: LeafNode =>
          val i = lowerBound(l.keys, key)
          return if (i < l.keys.length && Bytes.compare(l.keys(i), key) == 0) l.values(i) else -1L
        case in: InnerNode =>
          node = in.children(upperBound(in.keys, key))
      }
    }
    -1L
  }

  /** Up to `limit` (key, value) pairs with key ≥ low, in order. */
  def scan(low: Array[Byte], limit: Int): ArrayBuffer[(Array[Byte], Long)] = {
    val acc = new ArrayBuffer[(Array[Byte], Long)](limit)
    var node = root
    var leaf: LeafNode = null
    while (leaf == null) node match {
      case l: LeafNode  => leaf = l
      case in: InnerNode => node = in.children(upperBound(in.keys, low))
    }
    var i = lowerBound(leaf.keys, low)
    while (leaf != null && acc.size < limit) {
      while (i < leaf.keys.length && acc.size < limit) {
        acc += ((leaf.keys(i), leaf.values(i)))
        i += 1
      }
      leaf = leaf.next
      i = 0
    }
    acc
  }

  /** Node slots + headers + referenced key bytes (keys stored by reference:
    * each stored key or separator costs one 8-byte pointer in the node plus
    * its out-of-node byte array, counted once per reference as TLX does).
    */
  def memoryBytes: Long = {
    var total = 0L
    def keyCost(k: Array[Byte]): Long = 8L + 16L + k.length
    def walk(n: AnyRef): Unit = n match {
      case l: LeafNode =>
        total += 32L + fanout * 16L // header + fixed 256-byte slot area
        total += leafKeyBytes(l)
      case in: InnerNode =>
        total += 32L + fanout * 16L
        in.keys.foreach(k => total += keyCost(k))
        in.children.foreach(walk)
    }
    walk(root)
    total
  }

  /** Leaf key storage cost — Prefix B+tree overrides with truncation. */
  protected def leafKeyBytes(l: LeafNode): Long =
    l.keys.iterator.map(k => 8L + 16L + k.length).sum

  protected def lowerBound(keys: ArrayBuffer[Array[Byte]], key: Array[Byte]): Int = {
    var lo = 0; var hi = keys.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (Bytes.compare(keys(mid), key) < 0) lo = mid + 1 else hi = mid
    }
    lo
  }

  protected def upperBound(keys: ArrayBuffer[Array[Byte]], key: Array[Byte]): Int = {
    var lo = 0; var hi = keys.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (Bytes.compare(keys(mid), key) <= 0) lo = mid + 1 else hi = mid
    }
    lo
  }
}

/** Prefix B+tree [Bayer & Unterauer 1977] (§5): suffix truncation picks the
  * shortest separator that still splits the siblings (real — affects inner
  * node contents and comparisons), and prefix truncation stores each leaf's
  * common prefix once (reflected in the storage accounting; lookup semantics
  * are unchanged).
  */
final class PrefixBPlusTree(fanout: Int = 16) extends BPlusTree(fanout) {

  /** Shortest prefix of `rightFirst` strictly greater than `leftLast`. */
  override protected def separator(leftLast: Array[Byte], rightFirst: Array[Byte]): Array[Byte] = {
    val l = Bytes.lcp(leftLast, rightFirst)
    val cut = math.min(l + 1, rightFirst.length)
    java.util.Arrays.copyOf(rightFirst, cut)
  }

  /** Prefix-truncated leaf storage: shared prefix once + per-key suffixes. */
  override protected def leafKeyBytes(l: LeafNode): Long =
    if (l.keys.isEmpty) 0L
    else {
      val p = Bytes.lcp(l.keys.head, l.keys.last)
      16L + p + l.keys.iterator.map(k => 8L + 16L + (k.length - p).toLong).sum
    }
}
