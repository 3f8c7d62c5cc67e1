package repro.eval

import repro.SparkSpec
import repro.core.{BuiltHope, HopeSpark, Scheme}
import repro.keys.KeySynth

/** Per-partition Spark evaluation: dictionaries broadcast once, each
  * partition builds its own tree and reports a metrics row.
  */
class SparkTreeEvalSpec extends SparkSpec {

  private lazy val df = KeySynth.emails(spark, 4000).cache()

  private def hope(s: Scheme): Option[BuiltHope] = Some(HopeSpark.build(df, "k", s))

  test("perPartition returns one row per non-empty partition") {
    val rows = SparkTreeEval.perPartition(spark, df, "k", "B+tree", "email",
      "Double-Char", hope(Scheme.DoubleChar), partitions = 3, nPoint = 500, nRange = 50)
    assert(rows.size == 3)
    assert(rows.forall(r => r.pointNs > 0 && r.memoryBytes > 0 && r.keys > 0))
    assert(rows.map(_.keys.toLong).sum == df.count())
  }

  test("perPartition works for every tree type") {
    for (tree <- KVTree.names) {
      val rows = SparkTreeEval.perPartition(spark, df, "k", tree, "email",
        "Single-Char", hope(Scheme.SingleChar), partitions = 2, nPoint = 300, nRange = 30)
      assert(rows.nonEmpty, tree)
      assert(rows.forall(_.tree == tree))
    }
  }

  test("uncompressed config (no scheme) also runs") {
    val rows = SparkTreeEval.perPartition(spark, df, "k", "ART", "email",
      "Uncompressed", None, partitions = 2, nPoint = 300, nRange = 30)
    assert(rows.forall(_.dictBytes == 0))
  }

  test("aggregate weights by partition key counts and sums memory") {
    val rows = Seq(
      TreeEvalRow("t", "d", "s", 100, 10, 20, 30, 1000, 100, 1, 2),
      TreeEvalRow("t", "d", "s", 300, 20, 40, 60, 3000, 100, 3, 2))
    val agg = SparkTreeEval.aggregate(rows)
    assert(agg.keys == 400)
    assert(math.abs(agg.pointNs - 17.5) < 1e-9)
    assert(agg.memoryBytes == 1000 - 100 + 3000 - 100 + 100)
  }

  test("HOPE-compressed B+tree uses less aggregate tree memory than uncompressed") {
    // dictionary excluded: it is a fixed cost amortized only at paper scale
    val un = SparkTreeEval.aggregate(SparkTreeEval.perPartition(spark, df, "k",
      "B+tree", "email", "Uncompressed", None, partitions = 2, nPoint = 200, nRange = 20))
    val dc = SparkTreeEval.aggregate(SparkTreeEval.perPartition(spark, df, "k",
      "B+tree", "email", "Double-Char", hope(Scheme.DoubleChar), partitions = 2,
      nPoint = 200, nRange = 20))
    assert(dc.memoryBytes - dc.dictBytes < un.memoryBytes,
      s"${dc.memoryBytes - dc.dictBytes} !< ${un.memoryBytes}")
  }
}
