package repro.hot

import java.util.Arrays
import repro.core.Bytes
import scala.collection.mutable.ArrayBuffer

/** HOT substitute (see DESIGN.md §3): a binary PATRICIA / crit-bit trie.
  *
  * Like HOT, the structure stores only *branching points* — each internal
  * node is a single discriminating bit index; no key bytes are kept on the
  * path — so it sits at the same extreme of the paper's Figure 7 key-storage
  * spectrum (minimum partial keys, full-key verification at the leaf). This
  * is the property that determines how much a structure benefits from HOPE.
  *
  * Bits beyond a key's end read as 0, which is exact for the zero-padded
  * encoded keys used in integration (terminated keys are never bit-prefixes
  * of each other, so a discriminating bit always exists). Two distinct keys
  * that are equal after zero padding (`ab` and `ab\0`) have no such bit, so
  * `insert` rejects the second one instead of overwriting the first.
  */
final class CritBitTrie {

  private sealed abstract class Node
  private final class Inner(val bitIdx: Int, var left: Node, var right: Node) extends Node
  private final class Leaf(val key: Array[Byte], var value: Long) extends Node

  private var root: Node = _
  private var count = 0
  private var innerCount = 0

  def size: Int = count

  @inline private def bit(key: Array[Byte], i: Int): Int = {
    val byteIdx = i >>> 3
    if (byteIdx >= key.length) 0 else (key(byteIdx) >>> (7 - (i & 7))) & 1
  }

  /** First bit index at which a and b differ; -1 if equal (incl. 0-padding). */
  private def firstDiffBit(a: Array[Byte], b: Array[Byte]): Int = {
    var i = Arrays.mismatch(a, b)
    if (i < 0) return -1
    val diff =
      if (i < a.length && i < b.length) (a(i) ^ b(i)) & 0xff
      else { // past the shorter key's end, the longer one differs where it is non-zero
        val longer = if (a.length > b.length) a else b
        while (i < longer.length && longer(i) == 0) i += 1
        if (i == longer.length) return -1
        longer(i) & 0xff
      }
    (i << 3) + Integer.numberOfLeadingZeros(diff) - 24
  }

  def insert(key: Array[Byte], value: Long): Unit = {
    if (root == null) { root = new Leaf(key, value); count += 1; return }
    // walk to the best-matching leaf
    var node = root
    while (node.isInstanceOf[Inner]) {
      val in = node.asInstanceOf[Inner]
      node = if (bit(key, in.bitIdx) == 0) in.left else in.right
    }
    val leaf = node.asInstanceOf[Leaf]
    val d = firstDiffBit(key, leaf.key)
    if (d < 0) {
      // equal after zero padding: the same key, or two keys no bit tells apart
      if (key.length == leaf.key.length) { leaf.value = value; return }
      throw new IllegalArgumentException(
        s"keys ${Bytes.hex(leaf.key)} and ${Bytes.hex(key)} differ only by trailing zero bytes")
    }
    val newLeaf = new Leaf(key, value)
    val goRight = bit(key, d) == 1
    // descend again, stopping where the new node belongs (bit order invariant)
    var parent: Inner = null
    var cur = root
    var fromRight = false
    while (cur.isInstanceOf[Inner] && cur.asInstanceOf[Inner].bitIdx < d) {
      val in = cur.asInstanceOf[Inner]
      parent = in
      fromRight = bit(key, in.bitIdx) == 1
      cur = if (fromRight) in.right else in.left
    }
    val branch = if (goRight) new Inner(d, cur, newLeaf) else new Inner(d, newLeaf, cur)
    innerCount += 1
    count += 1
    if (parent == null) root = branch
    else if (fromRight) parent.right = branch
    else parent.left = branch
  }

  /** Point lookup with full-key verification at the leaf; -1 when absent. */
  def get(key: Array[Byte]): Long = {
    var node = root
    if (node == null) return -1L
    while (node.isInstanceOf[Inner]) {
      val in = node.asInstanceOf[Inner]
      node = if (bit(key, in.bitIdx) == 0) in.left else in.right
    }
    val l = node.asInstanceOf[Leaf]
    if (Bytes.compare(l.key, key) == 0) l.value else -1L
  }

  /** Up to `limit` entries ≥ low, in key order. Walks low's bits to a leaf
    * and finds `d`, the first bit at which low and that leaf differ, then
    * seeks low from the root again. The keys below an inner node past bit
    * `d` agree with that leaf up to bit `d`, so they are all ≥ low iff low
    * has a 0 there; elsewhere a right subtree passed by is all ≥ low.
    */
  def scan(low: Array[Byte], limit: Int): ArrayBuffer[(Array[Byte], Long)] = {
    val acc = new ArrayBuffer[(Array[Byte], Long)](limit)
    if (root == null) return acc
    var node = root
    while (node.isInstanceOf[Inner]) {
      val in = node.asInstanceOf[Inner]
      node = if (bit(low, in.bitIdx) == 0) in.left else in.right
    }
    val d = firstDiffBit(low, node.asInstanceOf[Leaf].key)
    def all(n: Node): Unit = if (acc.size < limit) n match {
      case l: Leaf   => acc += ((l.key, l.value))
      case in: Inner => all(in.left); all(in.right)
    }
    def seek(n: Node): Unit = n match {
      case l: Leaf => if (acc.size < limit && Bytes.compare(l.key, low) >= 0) acc += ((l.key, l.value))
      case in: Inner =>
        if (d >= 0 && in.bitIdx > d) { if (bit(low, d) == 0) all(in) }
        else if (bit(low, in.bitIdx) == 0) { seek(in.left); all(in.right) }
        else seek(in.right)
    }
    seek(root)
    acc
  }

  /** Memory: internal nodes (bit index + two pointers) + one tuple pointer
    * per leaf; key bytes live in the table (partial-key structure, §7.2).
    */
  def memoryBytes: Long = innerCount.toLong * (16 + 4 + 8 + 8) + count.toLong * (16 + 8)

  /** Average leaf depth (binary decisions per lookup). */
  def avgLeafDepth: Double = {
    var sum = 0L
    var leaves = 0L
    def walk(n: Node, depth: Int): Unit = n match {
      case null =>
      case _: Leaf => sum += depth; leaves += 1
      case in: Inner => walk(in.left, depth + 1); walk(in.right, depth + 1)
    }
    walk(root, 0)
    if (leaves == 0) 0.0 else sum.toDouble / leaves
  }
}
