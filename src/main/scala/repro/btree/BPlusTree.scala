package repro.btree

import repro.core.Bytes
import scala.collection.mutable.ArrayBuffer

/** TLX-style in-memory B+tree (§5): string keys are stored outside the nodes
  * and referenced by pointer; the default fanout of 16 models the 256-byte
  * node of the paper (16 × 8-byte key pointer + 8-byte value/child pointer).
  *
  * Nodes are flat arrays with a fill count `n`, in the cache-conscious layout
  * of Rao & Ross (SIGMOD 2000): a leaf holds its key pointers and unboxed
  * `Long` values, an inner node its separator pointers and children. Each
  * array has one spare slot, so an insert lands first and the node splits
  * after. Slots past `n` are never read. A split leaves them stale, which
  * retains nothing: the tree never deletes, and the new sibling references
  * every moved key and child. Keys are compared with [[Bytes.compare]], the
  * JVM's `memcmp`, as TLX compares with `memcmp`.
  *
  * Supports insert, point lookup, and ordered scans from a start key.
  */
class BPlusTree(val fanout: Int = 16) {
  import BPlusTree.{InnerNode, LeafNode}
  require(fanout >= 4)

  protected var root: AnyRef = new LeafNode(fanout)
  private var count = 0
  /** Separator of the last split that [[insertRec]] reported. */
  private var splitKey: Array[Byte] = _

  def size: Int = count

  /** Separator promoted when a leaf splits; Prefix B+tree shortens it. */
  protected def separator(leftLast: Array[Byte], rightFirst: Array[Byte]): Array[Byte] =
    rightFirst

  def insert(key: Array[Byte], value: Long): Unit = {
    val right = insertRec(root, key, value)
    if (right != null) {
      val r = new InnerNode(fanout)
      r.keys(0) = splitKey
      r.children(0) = root
      r.children(1) = right
      r.n = 1
      root = r
    }
  }

  /** Returns the new right sibling when `node` split, its separator in
    * [[splitKey]]; else null.
    */
  private def insertRec(node: AnyRef, key: Array[Byte], value: Long): AnyRef =
    node match {
      case l: LeafNode =>
        val i = lowerBound(l.keys, l.n, key)
        if (i < l.n && Bytes.compare(l.keys(i), key) == 0) { l.values(i) = value; null }
        else {
          System.arraycopy(l.keys, i, l.keys, i + 1, l.n - i)
          System.arraycopy(l.values, i, l.values, i + 1, l.n - i)
          l.keys(i) = key; l.values(i) = value
          l.n += 1; count += 1
          if (l.n <= fanout) null
          else {
            val mid = l.n / 2
            val r = new LeafNode(fanout)
            r.n = l.n - mid
            System.arraycopy(l.keys, mid, r.keys, 0, r.n)
            System.arraycopy(l.values, mid, r.values, 0, r.n)
            l.n = mid
            r.next = l.next; l.next = r
            splitKey = separator(l.keys(mid - 1), r.keys(0))
            r
          }
        }
      case in: InnerNode =>
        val i = upperBound(in.keys, in.n, key)
        val child = insertRec(in.children(i), key, value)
        if (child == null) null
        else {
          System.arraycopy(in.keys, i, in.keys, i + 1, in.n - i)
          System.arraycopy(in.children, i + 1, in.children, i + 2, in.n - i)
          in.keys(i) = splitKey; in.children(i + 1) = child
          in.n += 1
          if (in.n <= fanout) null
          else {
            val mid = in.n / 2
            val r = new InnerNode(fanout)
            r.n = in.n - mid - 1
            System.arraycopy(in.keys, mid + 1, r.keys, 0, r.n)
            System.arraycopy(in.children, mid + 1, r.children, 0, r.n + 1)
            splitKey = in.keys(mid)
            in.n = mid
            r
          }
        }
    }

  /** The leaf whose key range holds `key`. */
  private def leafFor(key: Array[Byte]): LeafNode = {
    var node = root
    while (node.isInstanceOf[InnerNode]) {
      val in = node.asInstanceOf[InnerNode]
      node = in.children(upperBound(in.keys, in.n, key))
    }
    node.asInstanceOf[LeafNode]
  }

  /** Point lookup; -1 when absent. */
  def get(key: Array[Byte]): Long = {
    val l = leafFor(key)
    val i = lowerBound(l.keys, l.n, key)
    if (i < l.n && Bytes.compare(l.keys(i), key) == 0) l.values(i) else -1L
  }

  /** Up to `limit` (key, value) pairs with key ≥ low, in order. */
  def scan(low: Array[Byte], limit: Int): ArrayBuffer[(Array[Byte], Long)] = {
    val acc = new ArrayBuffer[(Array[Byte], Long)](limit)
    var leaf = leafFor(low)
    var i = lowerBound(leaf.keys, leaf.n, low)
    while (leaf != null && acc.size < limit) {
      while (i < leaf.n && acc.size < limit) {
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
    def walk(n: AnyRef): Unit = n match {
      case l: LeafNode =>
        total += 32L + fanout * 16L // header + fixed 256-byte slot area
        total += leafKeyBytes(l)
      case in: InnerNode =>
        total += 32L + fanout * 16L
        var i = 0
        while (i < in.n) { total += 8L + 16L + in.keys(i).length; i += 1 }
        i = 0
        while (i <= in.n) { walk(in.children(i)); i += 1 }
    }
    walk(root)
    total
  }

  /** Leaf key storage cost — Prefix B+tree overrides with truncation. */
  protected def leafKeyBytes(l: LeafNode): Long = {
    var total = 0L
    var i = 0
    while (i < l.n) { total += 8L + 16L + l.keys(i).length; i += 1 }
    total
  }

  /** First index in `keys[0, n)` whose key is ≥ `key`. */
  private def lowerBound(keys: Array[Array[Byte]], n: Int, key: Array[Byte]): Int = {
    var lo = 0; var hi = n
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (Bytes.compare(keys(mid), key) < 0) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** First index in `keys[0, n)` whose key is > `key`. */
  private def upperBound(keys: Array[Array[Byte]], n: Int, key: Array[Byte]): Int = {
    var lo = 0; var hi = n
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (Bytes.compare(keys(mid), key) <= 0) lo = mid + 1 else hi = mid
    }
    lo
  }
}

/** The node types of [[BPlusTree]], kept outside the class so that matching
  * on a node needs no check of the tree instance it came from.
  */
object BPlusTree {
  private[btree] final class LeafNode(fanout: Int) {
    val keys = new Array[Array[Byte]](fanout + 1)
    val values = new Array[Long](fanout + 1)
    var n = 0
    var next: LeafNode = _
  }
  private[btree] final class InnerNode(fanout: Int) {
    val keys = new Array[Array[Byte]](fanout + 1) // separator i splits child i / i+1
    val children = new Array[AnyRef](fanout + 2)
    var n = 0 // separators; the node has n + 1 children
  }
}

/** Prefix B+tree [Bayer & Unterauer 1977] (§5): suffix truncation picks the
  * shortest separator that still splits the siblings (real — affects inner
  * node contents and comparisons), and prefix truncation stores each leaf's
  * common prefix once (reflected in the storage accounting; lookup semantics
  * are unchanged).
  */
final class PrefixBPlusTree(fanout: Int = 16) extends BPlusTree(fanout) {
  import BPlusTree.LeafNode

  /** Shortest prefix of `rightFirst` strictly greater than `leftLast`. */
  override protected def separator(leftLast: Array[Byte], rightFirst: Array[Byte]): Array[Byte] = {
    val l = Bytes.lcp(leftLast, rightFirst)
    val cut = math.min(l + 1, rightFirst.length)
    java.util.Arrays.copyOf(rightFirst, cut)
  }

  /** Prefix-truncated leaf storage: shared prefix once + per-key suffixes. */
  override protected def leafKeyBytes(l: LeafNode): Long =
    if (l.n == 0) 0L
    else {
      val p = Bytes.lcp(l.keys(0), l.keys(l.n - 1))
      16L + p + l.keys.iterator.take(l.n).map(k => 8L + 16L + (k.length - p).toLong).sum
    }
}
