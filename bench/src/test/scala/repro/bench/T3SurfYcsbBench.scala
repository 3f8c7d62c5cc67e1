package repro.bench

import repro.eval.{Configs, Harness, Tables, TreeEvalRow}

/** T3 ⇔ Figure 10: SuRF under YCSB point/range workloads — latency, memory,
  * trie height per dataset × config. T4's FPR probes ride along for email.
  */
class T3SurfYcsbBench extends BenchSuite {

  private lazy val results: Seq[(TreeEvalRow, Double)] =
    for {
      ds <- Seq("email", "wiki", "url")
      keys = BenchBase.keys(ds)
      (name, scheme) <- Configs.all
    } yield Harness.runSurf(ds, name, keys, scheme.map(BenchBase.hope(ds, _)),
      suffixBits = 8, nPoint = 20000, nRange = 3000,
      negatives = if (ds == "email") BenchBase.negatives(10000) else Array.empty)

  test("emit T3 (Fig. 10) table") {
    Tables.emit("T3_surf", Tables.render(
      "T3 / Fig.10 — SuRF YCSB (8-bit real suffixes)",
      Seq("dataset", "config", "point ns", "range ns", "memory", "height", "FPR"),
      results.map { case (r, fpr) => Seq(r.dataset, r.scheme, Tables.fmt(r.pointNs),
        Tables.fmt(r.rangeNs), Tables.kb(r.memoryBytes), Tables.fmt(r.height), f"$fpr%.4f") }))
    assert(results.nonEmpty)
  }

  private def row(ds: String, cfg: String): TreeEvalRow =
    results.map(_._1).find(r => r.dataset == ds && r.scheme == cfg).get

  test("shape: HOPE reduces SuRF trie height on every dataset (shorter keys)") {
    for (ds <- Seq("email", "wiki", "url")) {
      assert(row(ds, "Double-Char").height < row(ds, "Uncompressed").height, ds)
      assert(row(ds, "4-Grams(64K)").height < row(ds, "Uncompressed").height, ds)
    }
  }

  test("shape: HOPE reduces SuRF filter memory for non-ALM configs") {
    // dictionary excluded at this scale (amortized only at the paper's 25M keys)
    for (ds <- Seq("email", "wiki", "url")) {
      val unR = row(ds, "Uncompressed"); val dcR = row(ds, "Double-Char")
      val un = (unR.memoryBytes - unR.dictBytes).toDouble
      val dc = (dcR.memoryBytes - dcR.dictBytes).toDouble
      assert(dc < un, s"$ds: $dc !< $un")
    }
  }

  test("shape: ALM-Improved(64K) carries the largest dictionary overhead") {
    val dict = Configs.all.collect { case (n, Some(_)) => n -> row("email", n).dictBytes }.toMap
    assert(dict("ALM-Improved(64K)") >= dict.values.max)
  }
}
