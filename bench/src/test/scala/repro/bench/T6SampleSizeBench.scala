package repro.bench

import repro.core.{Hope, Scheme}
import repro.eval.Tables

/** T6 ⇔ Figure 13 (Appendix A): compression rate vs. sample size. The
  * paper's finding: 1% samples saturate CPR; higher-order schemes are more
  * sample-hungry than Single-Char.
  */
class T6SampleSizeBench extends BenchSuite {

  private lazy val keys = BenchBase.keys("email")

  private lazy val rows: Seq[(Double, String, Double)] =
    for {
      frac <- Seq(0.0005, 0.005, 0.01, 0.1, 1.0)
      scheme <- Seq[Scheme](Scheme.SingleChar, Scheme.DoubleChar,
        Scheme.NGrams(3, 1 << 16), Scheme.NGrams(4, 1 << 16))
    } yield {
      val sample = keys.take(math.max(16, (keys.length * frac).toInt))
      (frac, scheme.name, Hope.compressionRate(Hope.build(sample, scheme), keys.iterator))
    }

  test("emit T6 (Fig. 13) table") {
    Tables.emit("T6_samplesize", Tables.render(
      "T6 / Fig.13 — compression rate vs sample fraction (email)",
      Seq("fraction", "scheme", "CPR"),
      rows.map { case (f, s, c) => Seq(f"$f%.4f", s, Tables.fmt(c)) }))
    assert(rows.nonEmpty)
  }

  test("shape: 1% sample reaches ≥90% of the full-sample CPR") {
    // The paper's 1% is 250K keys (saturating); ours is only ~600, below its
    // own 10K-100K guideline, so allow a slightly wider band for the
    // higher-order schemes.
    for (s <- rows.map(_._2).distinct) {
      val at1 = rows.find(r => r._1 == 0.01 && r._2 == s).get._3
      val atFull = rows.find(r => r._1 == 1.0 && r._2 == s).get._3
      assert(at1 >= atFull * 0.90, s"$s: 1%→$at1 vs full→$atFull")
    }
  }

  test("shape: Single-Char is least sensitive to tiny samples") {
    def drop(s: String): Double = {
      val tiny = rows.find(r => r._1 == 0.0005 && r._2 == s).get._3
      val full = rows.find(r => r._1 == 1.0 && r._2 == s).get._3
      (full - tiny) / full
    }
    assert(drop(Scheme.SingleChar.name) <= drop(Scheme.NGrams(4, 1 << 16).name) + 0.02)
  }
}
