package perfbench

import java.nio.file.Paths

import org.apache.spark.sql.SparkSession

/** Benchmark entry point, started by `perfbench/run.py`:
  * `Main <workload> <seed> <seconds> <trace 0|1> <out dir>`.
  * Prints `metric` lines as it measures and, last, `RESULT <json>` with every
  * metric of the run plus the verified and failed operation counts.
  */
object Main {
  val workloads: Map[String, (SparkSession, SparkLog, Report, Tracer, Long, Int, Boolean) => Unit] = Map(
    "email-btree-sc" -> EmailBTree.run,
    "url-surf-3g" -> UrlSurf.run,
    "wiki-spark-hot-sc" -> WikiSpark.run,
  )

  def main(args: Array[String]): Unit = {
    require(args.length == 5, "usage: Main <workload> <seed> <seconds> <trace 0|1> <out dir>")
    val Array(workload, seedArg, secondsArg, traceArg, outDir) = args
    val run = workloads.getOrElse(workload,
      throw new IllegalArgumentException(s"unknown workload $workload; one of ${workloads.keys.mkString(", ")}"))
    val seed = seedArg.toLong
    val trace = traceArg == "1"
    val out = Paths.get(outDir).toAbsolutePath
    val slots = math.min(4, Runtime.getRuntime.availableProcessors)
    val spark = SparkSession.builder
      .master(s"local[$slots]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "8")
      .config("spark.local.dir", out.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", out.resolve("spark-warehouse").toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val log = new SparkLog
    spark.sparkContext.addSparkListener(log)
    val rep = new Report
    val tr = new Tracer(if (trace) 1 << 20 else 0)
    try {
      run(spark, log, rep, tr, seed, secondsArg.toInt, trace)
      if (trace) {
        Layers.selfTimes(tr)
        val file = out.resolve(s"spans-$workload-seed$seed.tsv")
        tr.write(file)
        println(s"spans written to $file")
      }
      println(s"verified $workload: ${rep.attempted} operations, ${rep.failed} failed")
      println("RESULT " + rep.json)
    } finally spark.stop()
  }
}
