package repro.btree

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Bytes

class BPlusTreeSpec extends AnyFunSuite {
  import BPlusTreeSpec.Probe

  private def refMap = new java.util.TreeMap[Array[Byte], Long](
    (a: Array[Byte], b: Array[Byte]) => Bytes.compare(a, b))

  private def randKeys(n: Int, maxLen: Int, seed: Long) = {
    val rnd = new scala.util.Random(seed)
    Array.fill(n)(Array.fill(1 + rnd.nextInt(maxLen))((33 + rnd.nextInt(94)).toByte))
  }

  for ((label, mk) <- Seq[(String, () => BPlusTree)](
    ("B+tree", () => new BPlusTree()),
    ("PrefixB+tree", () => new PrefixBPlusTree()))) {

    test(s"$label: insert/get basic") {
      val t = mk()
      val keys = Seq("delta", "alpha", "echo", "bravo", "charlie").map(Bytes.of)
      keys.zipWithIndex.foreach { case (k, i) => t.insert(k, i.toLong) }
      keys.zipWithIndex.foreach { case (k, i) => assert(t.get(k) == i.toLong) }
      assert(t.get(Bytes.of("foxtrot")) == -1L)
      assert(t.size == 5)
    }

    test(s"$label: duplicate insert replaces") {
      val t = mk()
      t.insert(Bytes.of("k"), 1); t.insert(Bytes.of("k"), 2)
      assert(t.get(Bytes.of("k")) == 2 && t.size == 1)
    }

    test(s"$label: randomized vs TreeMap (20k keys, many splits)") {
      val t = mk(); val ref = refMap
      randKeys(20000, 16, 3).zipWithIndex.foreach { case (k, i) =>
        t.insert(k, i.toLong); ref.put(k, i.toLong)
      }
      import scala.jdk.CollectionConverters._
      ref.entrySet().asScala.foreach(e => assert(t.get(e.getKey) == e.getValue))
      assert(t.size == ref.size)
      randKeys(3000, 16, 4).foreach { k =>
        val expect = if (ref.containsKey(k)) ref.get(k) else -1L
        assert(t.get(k) == expect)
      }
    }

    test(s"$label: scan agrees with tailMap") {
      val t = mk(); val ref = refMap
      randKeys(8000, 10, 5).zipWithIndex.foreach { case (k, i) =>
        t.insert(k, i.toLong); ref.put(k, i.toLong)
      }
      import scala.jdk.CollectionConverters._
      randKeys(300, 11, 6).foreach { p =>
        val got = t.scan(p, 25).map(kv => Bytes.hex(kv._1)).toSeq
        val want = ref.tailMap(p, true).keySet().iterator().asScala.take(25).map(Bytes.hex).toSeq
        assert(got == want, s"probe=${Bytes.hex(p)}")
      }
    }

    test(s"$label: sorted bulk insert keeps correctness (worst-case splits)") {
      val t = mk()
      val keys = (0 until 5000).map(i => Bytes.of(f"key$i%08d")).toArray
      keys.zipWithIndex.foreach { case (k, i) => t.insert(k, i.toLong) }
      keys.zipWithIndex.foreach { case (k, i) => assert(t.get(k) == i.toLong) }
      val scanned = t.scan(Bytes.of("key00000000"), 5000)
      assert(scanned.size == 5000)
    }

    test(s"$label: memory accounting positive and grows with keys") {
      val t = mk()
      randKeys(100, 12, 7).zipWithIndex.foreach { case (k, i) => t.insert(k, i.toLong) }
      val m1 = t.memoryBytes
      randKeys(5000, 12, 8).zipWithIndex.foreach { case (k, i) => t.insert(k, i.toLong) }
      assert(m1 > 0 && t.memoryBytes > m1)
    }
  }

  test("prefix truncation: PrefixB+tree accounts less leaf memory on shared-prefix keys") {
    val plain = new BPlusTree()
    val prefix = new PrefixBPlusTree()
    val keys = (0 until 8000).map(i => Bytes.of(f"http://www.example.com/articles/2020/$i%06d"))
    keys.zipWithIndex.foreach { case (k, i) => plain.insert(k, i.toLong); prefix.insert(k, i.toLong) }
    assert(prefix.memoryBytes < plain.memoryBytes,
      s"prefix=${prefix.memoryBytes} plain=${plain.memoryBytes}")
  }

  test("suffix truncation produces shorter separators than full keys") {
    val t = new PrefixBPlusTree(fanout = 8)
    val keys = (0 until 2000).map(i => Bytes.of(f"com.gmail@user$i%07d.extra.long.suffix"))
    keys.zipWithIndex.foreach { case (k, i) => t.insert(k, i.toLong) }
    // correctness after truncation
    keys.zipWithIndex.foreach { case (k, i) => assert(t.get(k) == i.toLong) }
  }

  test("separator correctness: keys inserted around truncated separators route fine") {
    val t = new PrefixBPlusTree(fanout = 4)
    val rnd = new scala.util.Random(11)
    val ref = refMap
    for (i <- 0 until 3000) {
      val k = Bytes.of("p" * rnd.nextInt(6) + rnd.nextInt(100).toString)
      t.insert(k, i.toLong); ref.put(k, i.toLong)
    }
    import scala.jdk.CollectionConverters._
    ref.entrySet().asScala.foreach(e => assert(t.get(e.getKey) == e.getValue))
  }

  for (fanout <- Seq(4, 5, 16); prefix <- Seq(false, true)) {
    val label = if (prefix) "PrefixB+tree" else "B+tree"
    test(s"$label fanout $fanout: mixed inserts, overwrites, absent gets and scans vs TreeMap") {
      val t = if (prefix) new PrefixBPlusTree(fanout) else new Probe(fanout)
      val ref = refMap
      val rnd = new scala.util.Random(41 + fanout)
      def key() = Array.fill(1 + rnd.nextInt(10)) {
        rnd.nextInt(4) match {
          case 0 => 0.toByte
          case 1 => (0x80 + rnd.nextInt(128)).toByte
          case _ => ('a' + rnd.nextInt(3)).toByte
        }
      }
      def checkMemory(): Unit = t match {
        case p: Probe => assert(p.memoryBytes == p.referenceBytes)
        case _ =>
      }
      val present = scala.collection.mutable.ArrayBuffer.empty[Array[Byte]]
      import scala.jdk.CollectionConverters._
      for (op <- 0 until 8000) {
        rnd.nextInt(10) match {
          case 0 | 1 | 2 | 3 =>
            val k = key(); t.insert(k, op.toLong)
            if (!ref.containsKey(k)) present += k.clone()
            ref.put(k, op.toLong)
          case 4 if present.nonEmpty => // overwrite through an equal, distinct array
            val k = present(rnd.nextInt(present.length)).clone()
            t.insert(k, op.toLong); ref.put(k, op.toLong)
          case 5 | 6 =>
            val k = key()
            assert(t.get(k) == (if (ref.containsKey(k)) ref.get(k) else -1L), Bytes.hex(k))
          case 7 if present.nonEmpty =>
            val k = present(rnd.nextInt(present.length))
            assert(t.get(k) == ref.get(k))
          case _ =>
            val low = key(); val limit = 1 + rnd.nextInt(3 * fanout)
            val got = t.scan(low, limit).map(kv => (Bytes.hex(kv._1), kv._2)).toSeq
            val want = ref.tailMap(low, true).entrySet().iterator().asScala.take(limit)
              .map(e => (Bytes.hex(e.getKey), e.getValue: Long)).toSeq
            assert(got == want, s"low=${Bytes.hex(low)} limit=$limit")
        }
        assert(t.size == ref.size)
        if (op % 1000 == 999) checkMemory()
      }
      checkMemory()
      t match {
        case p: Probe =>
          val leaves = p.leafKeys
          assert(leaves.length > 10, "scans must cross leaf boundaries")
          assert(leaves.forall(l => l.nonEmpty && l.length <= fanout))
          assert(leaves.flatten.map(Bytes.hex) == ref.keySet().asScala.toSeq.map(Bytes.hex))
        case _ =>
      }
    }
  }
}

object BPlusTreeSpec {
  /** A plain B+tree that exposes its node structure: the leaves in chain
    * order, and `memoryBytes` summed again over every node from the root.
    */
  final class Probe(fanout: Int) extends BPlusTree(fanout) {
    import BPlusTree.{InnerNode, LeafNode}
    def leafKeys: Seq[Seq[Array[Byte]]] = {
      var node = root
      while (!node.isInstanceOf[LeafNode]) node = node.asInstanceOf[InnerNode].children(0)
      var l = node.asInstanceOf[LeafNode]
      val out = Seq.newBuilder[Seq[Array[Byte]]]
      while (l != null) { out += l.keys.take(l.n).toSeq; l = l.next }
      out.result()
    }

    def referenceBytes: Long = {
      def keyBytes(keys: Seq[Array[Byte]]) = keys.map(k => 8L + 16L + k.length).sum
      def walk(node: AnyRef): Long = node match {
        case l: LeafNode => 32L + fanout * 16L + keyBytes(l.keys.take(l.n).toSeq)
        case in: InnerNode =>
          assert(in.n >= 1 && in.n <= fanout)
          32L + fanout * 16L + keyBytes(in.keys.take(in.n).toSeq) +
            in.children.take(in.n + 1).map(walk).sum
      }
      walk(root)
    }
  }
}
