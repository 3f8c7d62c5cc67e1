package repro.bench

import repro.core.{Bytes, Scheme}
import repro.eval.{Harness, Tables}
import repro.surf.Surf

/** T4 ⇔ Figure 11: SuRF false-positive rate vs. suffix bits on email keys,
  * uncompressed vs. HOPE-encoded. The paper's claim: compressed keys make
  * each suffix bit carry more information, so FPR drops.
  */
class T4SurfFprBench extends BenchSuite {

  private lazy val keys = BenchBase.keys("email")
  private lazy val negs = BenchBase.negatives(20000)

  private def fpr(scheme: Option[Scheme], suffixBits: Int): Double = {
    val hope = scheme.map(BenchBase.hope("email", _))
    val enc = Harness.keyCodec(hope)
    val surf = Surf(Harness.encodeSorted(keys, enc), suffixBits)
    val present = keys.map(Bytes.hex).toSet
    val realNegs = negs.filterNot(n => present(Bytes.hex(n)))
    realNegs.count(n => surf.mayContain(enc(n))).toDouble / realNegs.length
  }

  private lazy val rows: Seq[(String, Int, Double)] =
    for {
      (name, scheme) <- Seq("Uncompressed" -> None, "Double-Char" -> Some(Scheme.DoubleChar),
        "4-Grams(64K)" -> Some(Scheme.NGrams(4, 1 << 16)))
      bits <- Seq(0, 2, 4, 6, 8)
    } yield (name, bits, fpr(scheme, bits))

  test("emit T4 (Fig. 11) table") {
    Tables.emit("T4_surf_fpr", Tables.render(
      "T4 / Fig.11 — SuRF false positive rate vs suffix bits (email)",
      Seq("config", "suffix bits", "FPR"),
      rows.map { case (n, b, f) => Seq(n, b.toString, f"$f%.4f") }))
    assert(rows.nonEmpty)
  }

  test("shape: more suffix bits → monotonically lower FPR (per config)") {
    for (cfg <- rows.map(_._1).distinct) {
      val sweep = rows.filter(_._1 == cfg).sortBy(_._2).map(_._3)
      for (i <- 1 until sweep.length)
        assert(sweep(i) <= sweep(i - 1) + 0.01, s"$cfg: ${sweep.mkString(",")}")
    }
  }

  test("shape: HOPE-encoded SuRF has lower (or equal) FPR at 8 suffix bits") {
    val at8 = rows.filter(_._2 == 8).map(r => r._1 -> r._3).toMap
    assert(at8("Double-Char") <= at8("Uncompressed") + 0.01, at8.toString)
  }
}
