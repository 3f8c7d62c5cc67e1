package repro.eval

import repro.art.Art
import repro.btree.{BPlusTree, PrefixBPlusTree}
import repro.hot.CritBitTrie

/** Uniform facade over the four key-value index structures of §7 (SuRF, a
  * filter, has its own API). Values are tuple ids into an external table;
  * partial-key structures (ART, HOT) verify against the stored key.
  */
trait KVTree {
  def insert(key: Array[Byte], value: Long): Unit
  /** Point lookup: tuple id or -1. */
  def get(key: Array[Byte]): Long
  /** Ordered scan: number of entries returned (≤ limit), starting at ≥ low. */
  def scan(low: Array[Byte], limit: Int): Int
  /** Index structure size (search-tree memory of Figures 12/16). */
  def memoryBytes: Long
  def avgDepth: Double = 0.0
}

object KVTree {
  val names: Seq[String] = Seq("ART", "HOT", "B+tree", "PrefixB+tree")

  def create(name: String): KVTree = name match {
    case "ART"          => new ArtTree
    case "HOT"          => new HotTree
    case "B+tree"       => new BTreeAdapter(new BPlusTree())
    case "PrefixB+tree" => new BTreeAdapter(new PrefixBPlusTree())
    case other          => throw new IllegalArgumentException(s"unknown tree $other")
  }
}

/** ART with OCPS-style memory accounting (§7.2: partial keys + tuple ptr). */
final class ArtTree extends KVTree {
  private val art = new Art
  override def insert(key: Array[Byte], value: Long): Unit = art.insert(key, value)
  override def get(key: Array[Byte]): Long = art.get(key)
  override def scan(low: Array[Byte], limit: Int): Int = art.scan(low, limit).size
  override def memoryBytes: Long = art.ocpsMemoryBytes
  override def avgDepth: Double = art.avgLeafDepth
}

/** HOT substitute: crit-bit trie (branching-points-only storage). */
final class HotTree extends KVTree {
  private val t = new CritBitTrie
  override def insert(key: Array[Byte], value: Long): Unit = t.insert(key, value)
  override def get(key: Array[Byte]): Long = t.get(key)
  override def scan(low: Array[Byte], limit: Int): Int = t.scan(low, limit).size
  override def memoryBytes: Long = t.memoryBytes
  override def avgDepth: Double = t.avgLeafDepth
}

/** TLX-style (and Prefix) B+tree: full keys stored by reference. */
final class BTreeAdapter(t: BPlusTree) extends KVTree {
  override def insert(key: Array[Byte], value: Long): Unit = t.insert(key, value)
  override def get(key: Array[Byte]): Long = t.get(key)
  override def scan(low: Array[Byte], limit: Int): Int = t.scan(low, limit).size
  override def memoryBytes: Long = t.memoryBytes
}
