package repro.bench

import repro.eval.{Configs, KVTree, SparkTreeEval, Tables, TreeEvalRow}
import repro.keys.KeySynth

/** T5 ⇔ Figure 12: point-query latency + memory for ART / HOT / B+tree /
  * Prefix B+tree under the seven configs — run per-partition on Spark
  * (the repro band's per-partition encode-then-build framing).
  */
class T5TreePointBench extends BenchSuite {

  private lazy val rows: Seq[TreeEvalRow] =
    for {
      ds <- Seq("email", "wiki", "url")
      df = KeySynth.dataset(spark, ds, if (ds == "url") BenchBase.nKeys / 2 else BenchBase.nKeys)
        .cache()
      tree <- KVTree.names
      (name, scheme) <- Configs.all
    } yield SparkTreeEval.aggregate(
      SparkTreeEval.perPartition(spark, df, "k", tree, ds, name,
        scheme.map(BenchBase.hope(ds, _)), partitions = 4, nPoint = 6000, nRange = 400))

  test("emit T5 (Fig. 12) table") {
    Tables.emit("T5_trees_point", Tables.render(
      "T5 / Fig.12 — KV index point latency and memory (per-partition Spark eval)",
      Seq("dataset", "tree", "config", "point ns", "memory", "dict mem"),
      rows.map(r => Seq(r.dataset, r.tree, r.scheme, Tables.fmt(r.pointNs),
        Tables.kb(r.memoryBytes), Tables.kb(r.dictBytes)))))
    assert(rows.nonEmpty)
  }

  private def row(ds: String, tree: String, cfg: String): TreeEvalRow =
    rows.find(r => r.dataset == ds && r.tree == tree && r.scheme == cfg).get

  private def treeMem(r: repro.eval.TreeEvalRow): Double =
    (r.memoryBytes - r.dictBytes).toDouble

  test("shape: HOPE shrinks B+tree memory on every dataset (full-key storage)") {
    // dictionary excluded at this scale (amortized only at the paper's 25M keys)
    for (ds <- Seq("email", "wiki", "url"))
      assert(treeMem(row(ds, "B+tree", "Double-Char")) <
        treeMem(row(ds, "B+tree", "Uncompressed")), ds)
  }

  test("shape: B+tree memory saving % exceeds HOT's (Figure 7 spectrum)") {
    for (ds <- Seq("email", "wiki")) {
      def saving(tree: String): Double = {
        val un = treeMem(row(ds, tree, "Uncompressed"))
        val dc = treeMem(row(ds, tree, "Double-Char"))
        (un - dc) / un
      }
      assert(saving("B+tree") > saving("HOT"), s"$ds: ${saving("B+tree")} vs ${saving("HOT")}")
    }
  }

  test("shape: Prefix B+tree saves a smaller % from HOPE than plain B+tree") {
    for (ds <- Seq("email", "url")) {
      def saving(tree: String): Double = {
        val un = treeMem(row(ds, tree, "Uncompressed"))
        val dc = treeMem(row(ds, tree, "Double-Char"))
        (un - dc) / un
      }
      assert(saving("PrefixB+tree") < saving("B+tree") + 0.02,
        s"$ds: prefix=${saving("PrefixB+tree")} plain=${saving("B+tree")}")
    }
  }

  test("shape: ART memory shrinks under HOPE (shorter paths)") {
    for (ds <- Seq("email", "wiki"))
      assert(treeMem(row(ds, "ART", "Double-Char")) <
        treeMem(row(ds, "ART", "Uncompressed")) * 1.05, ds)
  }

  test("latencies are positive and finite everywhere") {
    rows.foreach(r => assert(r.pointNs > 0 && r.pointNs < 1e7, r.toString))
  }
}
