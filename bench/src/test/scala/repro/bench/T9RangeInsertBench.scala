package repro.bench

import repro.core.Scheme
import repro.eval.{Configs, Harness, KVTree, Measure, Tables, TreeEvalRow}

/** T9 ⇔ Figure 16 (Appendix D): range-query and insert latency for the four
  * KV indexes on email keys (the paper reports the same qualitative story as
  * the point-query figure). Each row is the per-field median of three
  * `Harness.runTree` calls, each on a fresh tree. The insert shape is
  * asserted on a paired ratio of fresh-tree loads ([[Measure.ratio]]), so
  * that one pause inside one timed pass cannot decide it.
  */
class T9RangeInsertBench extends BenchSuite {

  private lazy val keys = BenchBase.keys("email")

  private lazy val rows: Seq[TreeEvalRow] =
    for {
      tree <- KVTree.names
      (name, scheme) <- Configs.all
    } yield {
      val hope = scheme.map(BenchBase.hope("email", _))
      val runs = Seq.fill(3)(Harness.runTree(tree, "email", name, keys, hope,
        nPoint = 4000, nRange = 1500))
      def median(f: TreeEvalRow => Double): Double = Measure.median(runs.map(f))
      // memory, height and CPR do not depend on timing: equal in every run
      runs.head.copy(pointNs = median(_.pointNs), rangeNs = median(_.rangeNs),
        insertNs = median(_.insertNs))
    }

  test("emit T9 (Fig. 16) table") {
    Tables.emit("T9_range_insert", Tables.render(
      "T9 / Fig.16 — range and insert latency (email)",
      Seq("tree", "config", "range ns", "insert ns", "memory"),
      rows.map(r => Seq(r.tree, r.scheme, Tables.fmt(r.rangeNs),
        Tables.fmt(r.insertNs), Tables.kb(r.memoryBytes)))))
    assert(rows.nonEmpty)
  }

  test("all latencies positive and finite") {
    rows.foreach(r => assert(r.rangeNs > 0 && r.insertNs > 0 && r.rangeNs < 1e7, r.toString))
  }

  test("shape: ALM-Improved(64K) insert latency exceeds Double-Char's (slow encode)") {
    val alm = Harness.keyCodec(Some(BenchBase.hope("email", Scheme.AlmImproved(1 << 16))))
    val dc = Harness.keyCodec(Some(BenchBase.hope("email", Scheme.DoubleChar)))
    for (tree <- KVTree.names) {
      // one pass encodes every key and inserts it into a fresh tree
      def load(enc: Array[Byte] => Array[Byte]): Int => Long = _ => {
        val t = KVTree.create(tree)
        var i = 0
        while (i < keys.length) { t.insert(enc(keys(i)), i.toLong); i += 1 }
        t.memoryBytes
      }
      val ratio = Measure.ratio(1)(load(alm), load(dc))
      def insertNs(scheme: String) = rows.find(r => r.tree == tree && r.scheme == scheme).get.insertNs
      info(f"$tree: paired load ratio $ratio%.3f; table insert ns ratio " +
        f"${insertNs("ALM-Improved(64K)") / insertNs("Double-Char")}%.3f")
      assert(ratio > 0.8, s"$tree: ALM-Improved(64K) / Double-Char insert time = $ratio")
    }
  }
}
