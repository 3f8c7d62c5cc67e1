package repro.bench

import repro.core.{BuiltHope, Bytes, Hope, Scheme}
import repro.eval.{Measure, Tables}

/** T7 ⇔ Figure 14 (Appendix B): encoding latency vs. batch size over a
  * pre-sorted email sample. Paper claims: batching helps the fixed-interval
  * schemes; ALM schemes cannot exploit a symbol-aligned shared prefix.
  */
class T7BatchEncodeBench extends BenchSuite {

  private lazy val sorted = BenchBase.keys("email").sortWith(Bytes.compare(_, _) < 0)
  private lazy val totalBytes = sorted.map(_.length.toLong).sum

  private lazy val hopes = Seq[Scheme](Scheme.SingleChar, Scheme.DoubleChar,
    Scheme.NGrams(3, 1 << 16), Scheme.NGrams(4, 1 << 16), Scheme.AlmImproved(1 << 12))
    .map(s => s.name -> BenchBase.hope("email", s))

  private def encodeAll(hope: BuiltHope, batch: Int): Int => Long =
    _ => hope.encodeBatchSorted(sorted, batch).length

  private lazy val rows: Seq[(String, Int, Double)] =
    for ((name, hope) <- hopes; batch <- Seq(1, 2, 32))
      yield (name, batch, Measure.nsPerOp(1)(encodeAll(hope, batch)) / totalBytes)

  test("emit T7 (Fig. 14) table") {
    Tables.emit("T7_batch", Tables.render(
      "T7 / Fig.14 — batch encoding latency (ns/char), pre-sorted email keys",
      Seq("scheme", "batch", "ns/char"),
      rows.map { case (s, b, n) => Seq(s, b.toString, Tables.fmt(n)) }))
    assert(rows.nonEmpty)
  }

  test("shape: batch-32 is no slower than batch-1 for fixed-interval schemes") {
    // batch-32 time over batch-1 time, passes paired so drift hits both alike
    val ratios = for (s <- Seq("Double-Char", "3-Grams(65536)", "4-Grams(65536)")) yield {
      val hope = hopes.find(_._1 == s).get._2
      s -> Measure.ratio(1)(encodeAll(hope, 32), encodeAll(hope, 1))
    }
    println(ratios.map { case (s, r) => f"$s b32/b1 = $r%.3f" }.mkString("T7 paired: ", ", ", ""))
    for ((s, r) <- ratios) assert(r <= 1.1, s"$s: b32/b1=$r")
  }

  test("correctness: batch output equals individual encodes (spot check)") {
    val hope = Hope.build(BenchBase.sample("email"), Scheme.NGrams(3, 1 << 12))
    val some = sorted.take(500)
    val batched = hope.encodeBatchSorted(some, 32)
    some.indices.foreach(i => assert(batched(i) == hope.encode(some(i)), i.toString))
  }
}
