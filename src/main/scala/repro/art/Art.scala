package repro.art

import repro.core.{Bytes, DictIndex}
import scala.collection.mutable.ArrayBuffer

/** Adaptive Radix Tree [Leis et al., ICDE'13] with the three HOPE
  * modifications of §4.2: prefix-key support (a value slot on inner nodes),
  * full stored common prefixes (no optimistic skipping) so floor lookups are
  * exact without tuple verification, and leaves that carry the full key plus
  * a 64-bit value.
  *
  * Supports insert, exact lookup, floor ("≤" predecessor — the dictionary
  * query), and ordered range scans. Node fanout adapts 4 → 16 → 48 → 256.
  *
  * Memory accounting offers two modes: `ocpsMemoryBytes` caps accounted
  * per-node prefixes at 8 bytes and charges leaves one 8-byte tuple pointer
  * (the paper's index-ART with optimistic common prefix skipping);
  * `dictMemoryBytes` charges full prefixes and leaf key bytes (the
  * dictionary-ART).
  */
final class Art extends Serializable {

  import Art._

  private var root: Node = _
  private var count = 0

  def size: Int = count

  def insert(key: Array[Byte], value: Long): Unit = {
    if (root == null) { root = new Leaf(key, value); count += 1 }
    else root = insertRec(root, key, 0, value)
  }

  private def insertRec(node: Node, key: Array[Byte], depth: Int, value: Long): Node =
    node match {
      case l: Leaf =>
        if (eqFrom(l.key, key, depth)) { l.value = value; l }
        else {
          val common = lcpFrom(l.key, key, depth)
          val n4 = new Node4
          n4.prefix = java.util.Arrays.copyOfRange(key, depth, depth + common)
          val d = depth + common
          if (d == key.length) n4.valueLeaf = new Leaf(key, value)
          else n4.add(key(d) & 0xff, new Leaf(key, value))
          if (d == l.key.length) n4.valueLeaf = l
          else n4.add(l.key(d) & 0xff, l)
          count += 1
          n4
        }
      case in: Inner =>
        val p = in.prefix
        val c = lcpPrefix(key, depth, p)
        if (c < p.length) {
          // split the compressed path at c
          val n4 = new Node4
          n4.prefix = java.util.Arrays.copyOf(p, c)
          in.prefix = java.util.Arrays.copyOfRange(p, c + 1, p.length)
          n4.add(p(c) & 0xff, in)
          val d = depth + c
          if (d == key.length) n4.valueLeaf = new Leaf(key, value)
          else n4.add(key(d) & 0xff, new Leaf(key, value))
          count += 1
          n4
        } else {
          val d = depth + p.length
          if (d == key.length) {
            if (in.valueLeaf == null) { in.valueLeaf = new Leaf(key, value); count += 1 }
            else in.valueLeaf.value = value
            in
          } else {
            val b = key(d) & 0xff
            val ch = in.child(b)
            if (ch == null) { count += 1; in.add(b, new Leaf(key, value)) }
            else {
              val nc = insertRec(ch, key, d + 1, value)
              if (nc ne ch) in.replace(b, nc)
              in
            }
          }
        }
    }

  /** Exact lookup; -1 when absent (values are non-negative in this repo). */
  def get(key: Array[Byte]): Long = {
    var node = root
    var depth = 0
    while (node != null) {
      node match {
        case l: Leaf => return if (eqFrom(l.key, key, depth)) l.value else -1L
        case in: Inner =>
          val p = in.prefix
          if (lcpPrefix(key, depth, p) < p.length) return -1L
          val d = depth + p.length
          if (d == key.length) return if (in.valueLeaf != null) in.valueLeaf.value else -1L
          node = in.child(key(d) & 0xff)
          depth = d + 1
      }
    }
    -1L
  }

  /** Greatest entry ≤ `key[from..)` (the dictionary floor query), or null. */
  def floor(key: Array[Byte], from: Int): Leaf = floorRec(root, key, from, from)

  private def floorRec(node: Node, key: Array[Byte], base: Int, depth: Int): Leaf =
    node match {
      case null => null
      case l: Leaf =>
        if (cmpFrom(l.key, key, base) <= 0) l else null
      case in: Inner =>
        val p = in.prefix
        val kLen = key.length - depth
        val m = math.min(p.length, kLen)
        var i = 0
        while (i < m && p(i) == key(depth + i)) i += 1
        if (i < m) {
          if ((p(i) & 0xff) < (key(depth + i) & 0xff)) maxLeaf(in) else null
        } else if (kLen <= p.length) {
          if (kLen == p.length) in.valueLeaf else null
        } else {
          val d = depth + p.length
          val b = key(d) & 0xff
          val ch = in.child(b)
          if (ch != null) {
            val r = floorRec(ch, key, base, d + 1)
            if (r != null) return r
          }
          val l = in.maxLabelBelow(b)
          if (l >= 0) maxLeaf(in.child(l)) else in.valueLeaf
        }
    }

  private def maxLeaf(node: Node): Leaf = node match {
    case l: Leaf => l
    case in: Inner =>
      val l = in.maxLabelBelow(256)
      if (l >= 0) maxLeaf(in.child(l)) else in.valueLeaf
  }

  /** Up to `limit` entries with key ≥ `low`, in key order. */
  def scan(low: Array[Byte], limit: Int): ArrayBuffer[Leaf] = {
    val acc = new ArrayBuffer[Leaf](limit)
    scanRec(root, low, 0, limit, acc)
    acc
  }

  private def scanRec(node: Node, low: Array[Byte], depth: Int, limit: Int,
                      acc: ArrayBuffer[Leaf]): Unit = node match {
    case null =>
    case l: Leaf => if (cmpFrom(l.key, low, 0) >= 0 && acc.size < limit) acc += l
    case in: Inner =>
      if (acc.size >= limit) return
      val p = in.prefix
      val kLen = low.length - depth
      val m = math.min(p.length, math.max(kLen, 0))
      var i = 0
      while (i < m && p(i) == low(depth + i)) i += 1
      if (i < m) {
        if ((p(i) & 0xff) > (low(depth + i) & 0xff)) collectAll(in, limit, acc)
        // else: entire subtree < low — skip
      } else if (kLen <= p.length) {
        collectAll(in, limit, acc) // subtree extends low's remainder: all ≥ low
      } else {
        val d = depth + p.length
        val b = low(d) & 0xff
        val ch = in.child(b)
        if (ch != null) scanRec(ch, low, d + 1, limit, acc)
        in.foreachChildFrom(b + 1) { c => if (acc.size < limit) collectAll(c, limit, acc) }
      }
  }

  private def collectAll(node: Node, limit: Int, acc: ArrayBuffer[Leaf]): Unit = node match {
    case l: Leaf => if (acc.size < limit) acc += l
    case in: Inner =>
      if (acc.size >= limit) return
      if (in.valueLeaf != null && acc.size < limit) acc += in.valueLeaf
      in.foreachChildFrom(0) { c => if (acc.size < limit) collectAll(c, limit, acc) }
  }

  // ------------------------------------------------------------- accounting

  /** Index-mode memory: OCPS prefixes (≤8 B accounted) + 8 B tuple pointer
    * per leaf; key bytes live in the table, not the index (§7.2 ART).
    */
  def ocpsMemoryBytes: Long = memory(ocps = true, countKeyBytes = false)

  /** Dictionary-mode memory: full prefixes + leaf key bytes + 8 B entries. */
  def dictMemoryBytes: Long = memory(ocps = false, countKeyBytes = true)

  private def memory(ocps: Boolean, countKeyBytes: Boolean): Long = {
    var total = 0L
    def leafCost(l: Leaf): Long = 16L + 8L + (if (countKeyBytes) 16L + l.key.length else 0L)
    def walk(n: Node): Unit = n match {
      case l: Leaf => total += leafCost(l)
      case in: Inner =>
        val pl = if (ocps) math.min(8, in.prefix.length) else in.prefix.length
        total += 16L + 16L + pl + (in match {
          case _: Node4   => 4L + 4 * 8
          case _: Node16  => 16L + 16 * 8
          case _: Node48  => 256L + 48 * 8
          case _: Node256 => 256L * 8
        })
        if (in.valueLeaf != null) total += leafCost(in.valueLeaf)
        in.foreachChildFrom(0)(walk)
    }
    if (root != null) walk(root)
    total
  }

  /** Average leaf depth in bytes (trie height metric, Figure 10 row 3). */
  def avgLeafDepth: Double = {
    var sum = 0L
    var leaves = 0L
    def walk(n: Node, depth: Int): Unit = n match {
      case _: Leaf => sum += depth; leaves += 1
      case in: Inner =>
        val d = depth + in.prefix.length
        if (in.valueLeaf != null) { sum += d; leaves += 1 }
        in.foreachChildFrom(0)(c => walk(c, d + 1))
    }
    if (root != null) walk(root, 0)
    if (leaves == 0) 0.0 else sum.toDouble / leaves
  }

  // ---------------------------------------------------------------- helpers

  private def eqFrom(stored: Array[Byte], key: Array[Byte], depth: Int): Boolean =
    stored.length == key.length && {
      var i = depth
      while (i < key.length && stored(i) == key(i)) i += 1
      i == key.length
    }

  private def lcpFrom(a: Array[Byte], b: Array[Byte], depth: Int): Int = {
    val n = math.min(a.length, b.length) - depth
    var i = 0
    while (i < n && a(depth + i) == b(depth + i)) i += 1
    i
  }

  /** lcp of key[depth..) with p. */
  private def lcpPrefix(key: Array[Byte], depth: Int, p: Array[Byte]): Int = {
    val n = math.min(p.length, key.length - depth)
    var i = 0
    while (i < n && p(i) == key(depth + i)) i += 1
    i
  }

  /** Compare stored key against key[base..). */
  private def cmpFrom(stored: Array[Byte], key: Array[Byte], base: Int): Int = {
    val n = math.min(stored.length, key.length - base)
    var i = 0
    while (i < n) {
      val d = (stored(i) & 0xff) - (key(base + i) & 0xff)
      if (d != 0) return d
      i += 1
    }
    stored.length - (key.length - base)
  }
}

object Art {

  private[art] sealed abstract class Node extends Serializable

  private[art] final class Leaf(val key: Array[Byte], var value: Long) extends Node

  private[art] sealed abstract class Inner extends Node {
    var prefix: Array[Byte] = Array.emptyByteArray
    var valueLeaf: Leaf = _
    def child(b: Int): Node
    /** Add a child; returns this node or a grown replacement. */
    def add(b: Int, n: Node): Inner
    def replace(b: Int, n: Node): Unit
    /** Largest label < b with a child, or -1 (b up to 256). */
    def maxLabelBelow(b: Int): Int
    def foreachChildFrom(b: Int)(f: Node => Unit): Unit
  }

  private[art] final class Node4 extends Inner {
    val keys = new Array[Int](4)
    val children = new Array[Node](4)
    var n = 0
    def child(b: Int): Node = { var i = 0; while (i < n) { if (keys(i) == b) return children(i); i += 1 }; null }
    def add(b: Int, c: Node): Inner =
      if (n == 4) grow().add(b, c)
      else {
        var i = n - 1
        while (i >= 0 && keys(i) > b) { keys(i + 1) = keys(i); children(i + 1) = children(i); i -= 1 }
        keys(i + 1) = b; children(i + 1) = c; n += 1; this
      }
    def replace(b: Int, c: Node): Unit = { var i = 0; while (i < n) { if (keys(i) == b) { children(i) = c; return }; i += 1 } }
    def maxLabelBelow(b: Int): Int = { var r = -1; var i = 0; while (i < n && keys(i) < b) { r = keys(i); i += 1 }; r }
    def foreachChildFrom(b: Int)(f: Node => Unit): Unit = { var i = 0; while (i < n) { if (keys(i) >= b) f(children(i)); i += 1 } }
    private def grow(): Node16 = {
      val g = new Node16
      g.prefix = prefix; g.valueLeaf = valueLeaf
      System.arraycopy(keys, 0, g.keys, 0, 4); System.arraycopy(children, 0, g.children, 0, 4)
      g.n = 4; g
    }
  }

  private[art] final class Node16 extends Inner {
    val keys = new Array[Int](16)
    val children = new Array[Node](16)
    var n = 0
    def child(b: Int): Node = { var i = 0; while (i < n) { if (keys(i) == b) return children(i); i += 1 }; null }
    def add(b: Int, c: Node): Inner =
      if (n == 16) grow().add(b, c)
      else {
        var i = n - 1
        while (i >= 0 && keys(i) > b) { keys(i + 1) = keys(i); children(i + 1) = children(i); i -= 1 }
        keys(i + 1) = b; children(i + 1) = c; n += 1; this
      }
    def replace(b: Int, c: Node): Unit = { var i = 0; while (i < n) { if (keys(i) == b) { children(i) = c; return }; i += 1 } }
    def maxLabelBelow(b: Int): Int = { var r = -1; var i = 0; while (i < n && keys(i) < b) { r = keys(i); i += 1 }; r }
    def foreachChildFrom(b: Int)(f: Node => Unit): Unit = { var i = 0; while (i < n) { if (keys(i) >= b) f(children(i)); i += 1 } }
    private def grow(): Node48 = {
      val g = new Node48
      g.prefix = prefix; g.valueLeaf = valueLeaf
      var i = 0
      while (i < 16) { g.slot(keys(i)) = (i + 1).toShort; g.children(i) = children(i); i += 1 }
      g.n = 16; g
    }
  }

  private[art] final class Node48 extends Inner {
    val slot = new Array[Short](256) // 0 = empty, else child index + 1
    val children = new Array[Node](48)
    var n = 0
    def child(b: Int): Node = { val s = slot(b); if (s == 0) null else children(s - 1) }
    def add(b: Int, c: Node): Inner =
      if (n == 48) grow().add(b, c)
      else { children(n) = c; slot(b) = (n + 1).toShort; n += 1; this }
    def replace(b: Int, c: Node): Unit = { val s = slot(b); if (s != 0) children(s - 1) = c }
    def maxLabelBelow(b: Int): Int = { var i = b - 1; while (i >= 0) { if (slot(i) != 0) return i; i -= 1 }; -1 }
    def foreachChildFrom(b: Int)(f: Node => Unit): Unit = { var i = b; while (i < 256) { if (slot(i) != 0) f(children(slot(i) - 1)); i += 1 } }
    private def grow(): Node256 = {
      val g = new Node256
      g.prefix = prefix; g.valueLeaf = valueLeaf
      var i = 0
      while (i < 256) { if (slot(i) != 0) { g.children(i) = children(slot(i) - 1); g.n += 1 }; i += 1 }
      g
    }
  }

  private[art] final class Node256 extends Inner {
    val children = new Array[Node](256)
    var n = 0
    def child(b: Int): Node = children(b)
    def add(b: Int, c: Node): Inner = { if (children(b) == null) n += 1; children(b) = c; this }
    def replace(b: Int, c: Node): Unit = children(b) = c
    def maxLabelBelow(b: Int): Int = { var i = b - 1; while (i >= 0) { if (children(i) != null) return i; i -= 1 }; -1 }
    def foreachChildFrom(b: Int)(f: Node => Unit): Unit = { var i = b; while (i < 256) { if (children(i) != null) f(children(i)); i += 1 } }
  }
}

/** ART-based dictionary (Table 1: ALM / ALM-Improved): boundaries are the
  * stored keys, values are entry indices, and lookup is an exact floor query
  * over the suffix starting at `off`.
  */
final class ArtDictIndex private (art: Art) extends DictIndex {
  override def lookup(key: Array[Byte], off: Int): Int = {
    val leaf = art.floor(key, off)
    if (leaf == null)
      throw new IllegalStateException(
        s"no dictionary boundary at or below key ${Bytes.hex(key)} from offset $off")
    leaf.value.toInt
  }
  override def memoryBytes: Long = art.dictMemoryBytes
  override def name: String = "art"
}

object ArtDictIndex {
  def apply(boundaries: Array[Array[Byte]]): ArtDictIndex = {
    val art = new Art
    var i = 0
    while (i < boundaries.length) { art.insert(boundaries(i), i.toLong); i += 1 }
    new ArtDictIndex(art)
  }
}
