package repro.bench

import repro.core.{Bytes, Hope, Scheme}
import repro.eval.{Measure, Tables}

/** T7 ⇔ Figure 14 (Appendix B): encoding latency vs. batch size over a
  * pre-sorted email sample. Paper claims: batching helps the fixed-interval
  * schemes; ALM schemes cannot exploit a symbol-aligned shared prefix.
  */
class T7BatchEncodeBench extends BenchSuite {

  private lazy val sorted = BenchBase.keys("email").sortWith(Bytes.compare(_, _) < 0)
  private lazy val totalBytes = sorted.map(_.length.toLong).sum

  private lazy val rows: Seq[(String, Int, Double)] =
    for {
      scheme <- Seq[Scheme](Scheme.SingleChar, Scheme.DoubleChar,
        Scheme.NGrams(3, 1 << 16), Scheme.NGrams(4, 1 << 16), Scheme.AlmImproved(1 << 12))
      hope = BenchBase.hope("email", scheme)
      batch <- Seq(1, 2, 32)
    } yield (scheme.name, batch,
      Measure.nsPerOp(1)(_ => hope.encodeBatchSorted(sorted, batch).length) / totalBytes)

  test("emit T7 (Fig. 14) table") {
    Tables.emit("T7_batch", Tables.render(
      "T7 / Fig.14 — batch encoding latency (ns/char), pre-sorted email keys",
      Seq("scheme", "batch", "ns/char"),
      rows.map { case (s, b, n) => Seq(s, b.toString, Tables.fmt(n)) }))
    assert(rows.nonEmpty)
  }

  test("shape: batch-32 is no slower than batch-1 for fixed-interval schemes") {
    for (s <- Seq("Double-Char", "3-Grams(65536)", "4-Grams(65536)")) {
      val b1 = rows.find(r => r._1 == s && r._2 == 1).get._3
      val b32 = rows.find(r => r._1 == s && r._2 == 32).get._3
      assert(b32 <= b1 * 1.1, s"$s: b1=$b1 b32=$b32")
    }
  }

  test("correctness: batch output equals individual encodes (spot check)") {
    val hope = Hope.build(BenchBase.sample("email"), Scheme.NGrams(3, 1 << 12))
    val some = sorted.take(500)
    val batched = hope.encodeBatchSorted(some, 32)
    some.indices.foreach(i => assert(batched(i) == hope.encode(some(i)), i.toString))
  }
}
