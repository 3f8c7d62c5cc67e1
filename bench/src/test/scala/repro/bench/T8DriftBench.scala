package repro.bench

import repro.core.{Hope, Scheme}
import repro.eval.Tables
import repro.keys.KeySynth

/** T8 ⇔ Figure 15 (Appendix C): compression rate under a dramatic key-
  * distribution change — Email-A (gmail+yahoo) vs Email-B (the rest),
  * cross-applying dictionaries. Correctness is unaffected (completeness);
  * only CPR degrades, least for the low-order schemes.
  */
class T8DriftBench extends BenchSuite {

  private lazy val (aKeys, bKeys) = {
    val (a, b) = KeySynth.emailsSplit(spark, BenchBase.nKeys * 2)
    (KeySynth.collectKeys(a), KeySynth.collectKeys(b))
  }

  private lazy val rows: Seq[(String, String, Double)] =
    for {
      scheme <- Seq[Scheme](Scheme.SingleChar, Scheme.DoubleChar,
        Scheme.NGrams(3, 1 << 16), Scheme.NGrams(4, 1 << 16), Scheme.AlmImproved(1 << 16))
      (dict, label) <- Seq((aKeys, "Dict-A"), (bKeys, "Dict-B"))
      (data, dLabel) <- Seq((aKeys, "Email-A"), (bKeys, "Email-B"))
    } yield {
      val hope = Hope.build(dict.take(math.max(1000, dict.length / 100)), scheme)
      (scheme.name, s"$label,$dLabel", Hope.compressionRate(hope, data.iterator))
    }

  test("emit T8 (Fig. 15) table") {
    Tables.emit("T8_drift", Tables.render(
      "T8 / Fig.15 — CPR under key-distribution change",
      Seq("scheme", "dict,data", "CPR"),
      rows.map { case (s, l, c) => Seq(s, l, Tables.fmt(c)) }))
    assert(rows.nonEmpty)
  }

  private def cpr(scheme: String, combo: String): Double =
    rows.find(r => r._1 == scheme && r._2 == combo).get._3

  test("shape: mismatched dictionaries lose compression rate") {
    for (s <- Seq("Double-Char", "3-Grams(65536)", "4-Grams(65536)")) {
      assert(cpr(s, "Dict-A,Email-B") < cpr(s, "Dict-B,Email-B") + 0.02, s)
      assert(cpr(s, "Dict-B,Email-A") < cpr(s, "Dict-A,Email-A") + 0.02, s)
    }
  }

  test("shape: Single-Char is least affected by the drift (relative drop)") {
    def drop(s: String): Double = {
      val matched = cpr(s, "Dict-A,Email-A")
      val crossed = cpr(s, "Dict-B,Email-A")
      (matched - crossed) / matched
    }
    assert(drop("Single-Char") <= drop("4-Grams(65536)") + 0.02,
      s"single=${drop("Single-Char")} 4g=${drop("4-Grams(65536)")}")
  }

  test("correctness: a mismatched dictionary still encodes everything losslessly") {
    val hope = Hope.build(aKeys.take(2000), Scheme.NGrams(4, 1 << 12))
    bKeys.take(2000).foreach { k =>
      assert(java.util.Arrays.equals(hope.decode(hope.encode(k)), k))
    }
  }
}
