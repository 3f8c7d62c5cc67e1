package repro.art

import java.util.Arrays
import repro.core.{Bytes, DictIndex}
import scala.collection.mutable.ArrayBuffer

/** Adaptive Radix Tree [Leis et al., ICDE'13] with the three HOPE
  * modifications of §4.2: prefix-key support (a value slot on inner nodes),
  * full stored common prefixes (no optimistic skipping) so floor lookups are
  * exact without tuple verification, and leaves that carry the full key plus
  * a 64-bit value.
  *
  * Supports insert, exact lookup, floor ("≤" predecessor — the dictionary
  * query), and ordered range scans. Node fanout adapts 4 → 16 → 48 → 256;
  * the two sorted small sizes are one class, `SmallNode`.
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
        if (Arrays.equals(l.key, key)) { l.value = value; l }
        else {
          val common = Bytes.lcp(l.key, depth, key, depth)
          val n4 = new SmallNode(4)
          n4.prefix = Arrays.copyOfRange(key, depth, depth + common)
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
        val c = Bytes.lcp(key, depth, p, 0)
        if (c < p.length) {
          // split the compressed path at c
          val n4 = new SmallNode(4)
          n4.prefix = Arrays.copyOf(p, c)
          in.prefix = Arrays.copyOfRange(p, c + 1, p.length)
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
        case l: Leaf => return if (Arrays.equals(l.key, key)) l.value else -1L
        case in: Inner =>
          val p = in.prefix
          if (Bytes.lcp(key, depth, p, 0) < p.length) return -1L
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
        if (Bytes.compareSuffix(key, base, l.key) >= 0) l else null
      case in: Inner =>
        val p = in.prefix
        val d = depth + p.length
        if (Bytes.lcp(p, 0, key, depth) < p.length) {
          // key[depth..) leaves the prefix: the whole subtree is below or above it
          if (Bytes.compareSuffix(key, depth, p) > 0) maxLeaf(in) else null
        } else if (d == key.length) in.valueLeaf
        else {
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
    case l: Leaf => if (Bytes.compare(l.key, low) >= 0 && acc.size < limit) acc += l
    case in: Inner =>
      if (acc.size >= limit) return
      val p = in.prefix
      val d = depth + p.length
      if (Bytes.lcp(p, 0, low, depth) < p.length) {
        if (Bytes.compareSuffix(low, depth, p) < 0) collectAll(in, limit, acc)
        // else: entire subtree < low — skip
      } else if (d == low.length) {
        collectAll(in, limit, acc) // subtree extends low's remainder: all ≥ low
      } else {
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
  def ocpsMemoryBytes: Long = memory(ocps = true)

  /** Dictionary-mode memory: full prefixes + leaf key bytes + 8 B entries. */
  def dictMemoryBytes: Long = memory(ocps = false)

  private def memory(ocps: Boolean): Long = {
    var total = 0L
    def leafCost(l: Leaf): Long = 16L + 8L + (if (ocps) 0L else 16L + l.key.length)
    def walk(n: Node): Unit = n match {
      case l: Leaf => total += leafCost(l)
      case in: Inner =>
        val pl = if (ocps) math.min(8, in.prefix.length) else in.prefix.length
        total += 16L + 16L + pl + (in match {
          case s: SmallNode => s.cap + s.cap * 8L
          case _: Node48    => 256L + 48 * 8
          case _: Node256   => 256L * 8
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

  /** Sorted-array node of capacity `cap`, ART's 4- and 16-child sizes: a
    * full 4-slot node grows into a 16-slot one, a full 16-slot one into a
    * Node48.
    */
  private[art] final class SmallNode(val cap: Int) extends Inner {
    val keys = new Array[Int](cap)
    val children = new Array[Node](cap)
    var n = 0
    def child(b: Int): Node = { var i = 0; while (i < n) { if (keys(i) == b) return children(i); i += 1 }; null }
    def add(b: Int, c: Node): Inner =
      if (n == cap) grow().add(b, c)
      else {
        var i = n - 1
        while (i >= 0 && keys(i) > b) { keys(i + 1) = keys(i); children(i + 1) = children(i); i -= 1 }
        keys(i + 1) = b; children(i + 1) = c; n += 1; this
      }
    def replace(b: Int, c: Node): Unit = { var i = 0; while (i < n) { if (keys(i) == b) { children(i) = c; return }; i += 1 } }
    def maxLabelBelow(b: Int): Int = { var r = -1; var i = 0; while (i < n && keys(i) < b) { r = keys(i); i += 1 }; r }
    def foreachChildFrom(b: Int)(f: Node => Unit): Unit = { var i = 0; while (i < n) { if (keys(i) >= b) f(children(i)); i += 1 } }
    private def grow(): Inner = {
      val g = if (cap == 4) new SmallNode(16) else new Node48
      g.prefix = prefix; g.valueLeaf = valueLeaf
      var i = 0
      while (i < n) { g.add(keys(i), children(i)); i += 1 } // ascending: each add appends
      g
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
}

object ArtDictIndex {
  def apply(boundaries: Array[Array[Byte]]): ArtDictIndex = {
    val art = new Art
    var i = 0
    while (i < boundaries.length) { art.insert(boundaries(i), i.toLong); i += 1 }
    new ArtDictIndex(art)
  }
}
