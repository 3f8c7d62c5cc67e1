package repro.eval

import org.apache.spark.sql.{DataFrame, Dataset, Encoders, SparkSession}
import repro.core.{BuiltHope, Bytes}

/** Per-partition tree evaluation on Spark (the repro band's framing): the
  * HOPE dictionary (built once, e.g. by `HopeSpark.build`) is broadcast, and each
  * partition independently encodes its keys and builds + probes its own
  * in-memory search tree inside `mapPartitions`. Results come back as a
  * Dataset of [[TreeEvalRow]] aggregated on the driver.
  */
object SparkTreeEval {

  /** Run `treeName` over `keysDf(col)` encoded with `hope` (`None`: raw
    * keys), split into `partitions` independent trees; returns one row per
    * partition.
    */
  def perPartition(spark: SparkSession, keysDf: DataFrame, col: String,
                   treeName: String, dataset: String, schemeName: String,
                   hope: Option[BuiltHope], partitions: Int = 4,
                   nPoint: Int = 10000, nRange: Int = 500): Seq[TreeEvalRow] = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(hope)
    val ds: Dataset[String] = keysDf.select(col).as[String](Encoders.STRING)
      .repartition(partitions)
    ds.mapPartitions { it =>
      val keys = it.map(Bytes.utf8).toArray
      if (keys.isEmpty) Iterator.empty
      else Iterator.single(
        Harness.runTree(treeName, dataset, schemeName, keys, bc.value, nPoint, nRange))
    }.collect().toSeq
  }

  /** Weighted aggregate of per-partition rows into one summary row. */
  def aggregate(rows: Seq[TreeEvalRow]): TreeEvalRow = {
    require(rows.nonEmpty)
    val n = rows.map(_.keys.toLong).sum.toDouble
    def wavg(f: TreeEvalRow => Double): Double = rows.map(r => f(r) * r.keys).sum / n
    TreeEvalRow(
      rows.head.tree, rows.head.dataset, rows.head.scheme, n.toInt,
      wavg(_.pointNs), wavg(_.rangeNs), wavg(_.insertNs),
      rows.map(_.memoryBytes).sum - rows.map(_.dictBytes).sum + rows.head.dictBytes,
      rows.head.dictBytes, wavg(_.height), wavg(_.cpr))
  }
}
