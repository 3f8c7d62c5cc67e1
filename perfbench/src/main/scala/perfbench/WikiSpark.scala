package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

import repro.core.{BuiltHope, HopeSpark, Scheme}
import repro.hot.CritBitTrie
import repro.keys.{KeyShuffle, KeySynth, Zipf}

/** Per-partition work of one job: bulk-insert the partition's encoded keys
  * into a crit-bit trie (the HOT stand-in) and return (rows, trie size,
  * trie bytes, ns). The time covers pulling the rows through `hope_encode`
  * and the inserts.
  */
object PartitionTree {
  def build(it: Iterator[Array[Byte]]): Iterator[(Long, Long, Long, Long)] = {
    val t0 = System.nanoTime()
    val t = new CritBitTrie
    var rows = 0L
    while (it.hasNext) { t.insert(it.next(), rows); rows += 1 }
    Iterator.single((rows, t.size.toLong, t.memoryBytes, System.nanoTime() - t0))
  }

  /** Raw bits and encoded bits of a partition's keys, for the compression rate. */
  def bits(hope: BuiltHope, it: Iterator[String]): Iterator[(Long, Long)] = {
    var raw = 0L
    var enc = 0L
    it.foreach { s =>
      val k = s.getBytes(java.nio.charset.StandardCharsets.ISO_8859_1)
      raw += 8L * k.length
      enc += hope.encode(k).bitLen
    }
    Iterator.single((raw, enc))
  }
}

/** `wiki-spark-hot-sc`: ~2M wiki keys cached in Spark, a Single-Char
  * dictionary built with `HopeSpark.build`, and repeated jobs, each running
  * `hope_encode` (`HopeSpark.encodeColumn`) into a `mapPartitions` that
  * bulk-inserts every partition's encoded keys into its own crit-bit trie
  * and returns the partition's count and bytes. One job at a time (a closed
  * loop with one client) on `local[k]`. Latency is that of one partition's
  * encode-and-build, timed inside the task.
  */
object WikiSpark {
  val Keys = 2000000L
  val Partitions = 64
  val scheme: Scheme = Scheme.SingleChar

  /** Keys partitioned by hash and sorted within each partition, so that the
    * rows, and with them HopeSpark's sample, depend only on the seed.
    */
  def keysDf(spark: SparkSession, seed: Long): DataFrame =
    KeySynth.wiki(spark, Keys, seed).repartition(Partitions, col("k")).sortWithinPartitions("k")

  /** Data generation and caching, HopeSpark's sample and the dictionary build. */
  def setup(spark: SparkSession, tr: Tracer, seed: Long,
            genS: scala.collection.mutable.Builder[Double, Seq[Double]]): (DataFrame, Long, BuiltHope) =
    tr.span("setup") { s =>
      val ((df, n), genNs) = Measure.timed(tr.span("keys.gen", s) { _ =>
        val df = keysDf(spark, seed).cache()
        (df, df.count())
      })
      genS += genNs / 1e9
      val hope = tr.span("build", s)(_ => HopeSpark.build(df, "k", scheme, 0.01, seed))
      (df, n, hope)
    }

  /** Jobs of a timed phase; each job is one round. */
  final class Jobs {
    val rounds = new Rounds(1)
    val jobsMs = Seq.newBuilder[Double]
    var treeBytes = 0L
    var count = 0
  }

  /** One encode-and-build job, verified: every row lands in its partition's
    * trie, so the trie sizes add up to the key count.
    */
  private def job(spark: SparkSession, log: SparkLog, df: DataFrame, n: Long, hope: BuiltHope,
                  jobs: Jobs, rep: Report, tr: Tracer, tracing: Boolean, jobId: Long): Unit = {
    import spark.implicits._
    val (parts, ns, tasks) = log.job(spark)(
      HopeSpark.encodeColumn(df, "k", hope).select("k_enc").as[Array[Byte]]
        .mapPartitions(PartitionTree.build).collect())
    val partitions = new Samples
    parts.foreach(p => partitions.add(p._4))
    jobs.rounds.add(0, partitions, n, ns)
    jobs.jobsMs += ns / 1e6
    jobs.treeBytes = parts.map(_._3).sum
    jobs.count += 1
    rep.attempted += n
    rep.failed += math.abs(n - parts.map(_._2).sum) + parts.map(p => math.abs(p._1 - p._2)).sum
    if (tracing) {
      val end = System.nanoTime()
      val offset = end - System.currentTimeMillis() * 1000000L
      val js = tr.add(tr.id("spark.job"), -1, jobId, end - ns, end)
      tasks.foreach(t => tr.add(tr.id("spark.task"), js, jobId,
        t.launchMs * 1000000L + offset, t.finishMs * 1000000L + offset))
    }
  }

  /** At least one round, then more until `seconds` of job time are measured. */
  private def pass(spark: SparkSession, log: SparkLog, df: DataFrame, n: Long, hope: BuiltHope,
                   jobs: Jobs, rep: Report, tr: Tracer, tracing: Boolean, seconds: Double): Unit =
    while (jobs.rounds.count == 0 || jobs.rounds.busyNs < seconds * 1e9)
      job(spark, log, df, n, hope, jobs, rep, tr, tracing, jobs.count.toLong)

  /** Once per run, outside the timed phase: on a sample, ordering by the
    * encoded column gives the same key order as ordering by the key.
    */
  private def orderCheck(spark: SparkSession, df: DataFrame, hope: BuiltHope, rep: Report,
                         seed: Long): Unit = {
    import spark.implicits._
    val s = HopeSpark.encodeColumn(df.sample(withReplacement = false, 0.005, seed), "k", hope)
    val byKey = s.orderBy("k").select("k").as[String].collect()
    val byEnc = s.orderBy("k_enc").select("k").as[String].collect()
    rep.attempted += byKey.length
    rep.failed += math.abs(byKey.length - byEnc.length) +
      byKey.iterator.zip(byEnc.iterator).count { case (a, b) => a != b }
  }

  def run(spark: SparkSession, log: SparkLog, rep: Report, tr: Tracer, seed: Long,
          seconds: Int, trace: Boolean): Unit = {
    import spark.implicits._
    val genS = Seq.newBuilder[Double]
    val setups = (0 until 3).map { i =>
      val r = Measure.timed(setup(spark, tr, seed, genS))
      if (i < 2) r._1._1.unpersist(blocking = true)
      r
    }
    val setupS = Measure.median(setups.map(_._2 / 1e9))
    val (df, n, hope) = setups.last._1
    orderCheck(spark, df, hope, rep, seed)
    // warm-up: one untimed job
    job(spark, log, df, n, hope, new Jobs, new Report, tr, tracing = false, -1L)

    if (!trace) {
      val jobs = new Jobs
      pass(spark, log, df, n, hope, jobs, rep, tr, tracing = false, seconds)
      val h = hope
      val (raw, enc) = df.select("k").as[String].mapPartitions(PartitionTree.bits(h, _)).collect()
        .foldLeft((0L, 0L)) { case ((r, e), (r1, e1)) => (r + r1, e + e1) }
      rep.put("setup_s", setupS, "s")
      jobs.rounds.report(rep)
      rep.put("cpr", raw.toDouble / enc, "ratio")
      rep.put("index_bytes_per_key", (jobs.treeBytes + hope.dictMemoryBytes).toDouble / n, "B")
      val jobMs = jobs.jobsMs.result()
      rep.put("job_p50_ms", Measure.median(jobMs), "ms")
      rep.put("jobs", jobMs.length.toDouble, "count")
      rep.put("keys", n.toDouble, "count")
    } else {
      rep.put("keys.gen_s", Measure.median(genS.result()), "s")
      val gc = new GcWindow
      val plain = new Jobs
      pass(spark, log, df, n, hope, plain, rep, tr, tracing = false, seconds / 2.0)
      gc.report(rep)
      val traced = new Jobs
      pass(spark, log, df, n, hope, traced, rep, tr, tracing = true, seconds / 2.0)
      val plainOps = plain.rounds.opsPerS
      rep.put("trace.overhead_pct", (plainOps - traced.rounds.opsPerS) / plainOps * 100, "%")

      Layers.build(rep, tr, HopeSpark.sampleKeys(df, "k", 0.01, seed), scheme, reps = 3)
      val keys = Layers.shuffledKeys(df.sample(withReplacement = false, 0.1, seed), seed)
      Layers.dictAndEncode(rep, tr, hope, keys)
      treeProbe(rep, tr, hope, keys, seed)
      Layers.spark(rep, tr, spark, log, df, hope, seed)
      val slots = spark.sparkContext.defaultParallelism
      rep.put("check.layers_over_e2e", (rep.get("spark.encode_only_job_ms") +
        rep.get("tree.load_ns_per_key") * n / slots / 1e6) / Measure.median(plain.jobsMs.result()), "ratio")
    }
    df.unpersist()
  }

  /** The crit-bit trie alone, on a driver-side share of the keys encoded
    * beforehand: 90 % loaded, the rest probed as absent keys.
    */
  private def treeProbe(rep: Report, tr: Tracer, hope: BuiltHope, keys: Array[Array[Byte]],
                        seed: Long): Unit = {
    val enc = keys.map(hope.encodeTerminated(_).bytes)
    val nLoad = (enc.length * 0.9).toInt
    def load(): CritBitTrie = {
      val t = new CritBitTrie
      var i = 0
      while (i < nLoad) { t.insert(enc(i), i.toLong); i += 1 }
      t
    }
    val loadNs = tr.span("probe.tree_load")(_ => Measure.medianNs(3)(load()))
    val t = load()
    val zipf = new Zipf(nLoad, seed = seed + 3)
    val perm = KeyShuffle.permutation(nLoad, seed + 4)
    val probes = Array.fill(100000)(enc(perm(zipf.next())))
    var sink = 0L
    val getNs = tr.span("probe.tree_get")(_ => Measure.medianNs(5) {
      var i = 0
      while (i < probes.length) { sink += t.get(probes(i)); i += 1 }
    })
    val scans = probes.take(10000)
    val scanNs = tr.span("probe.tree_scan")(_ => Measure.medianNs(5) {
      var i = 0
      while (i < scans.length) { sink += t.scan(scans(i), EmailBTree.ScanLen).size; i += 1 }
    })
    val fp = (nLoad until enc.length).count(i => t.get(enc(i)) != -1L)
    Measure.consume(sink)
    rep.put("tree.get_ns", getNs / probes.length, "ns")
    rep.put("tree.scan_ns", scanNs / scans.length, "ns")
    rep.put("tree.load_ns_per_key", loadNs / nLoad, "ns")
    rep.put("tree.bytes_per_key", t.memoryBytes.toDouble / nLoad, "B")
    rep.put("tree.fpr", fp.toDouble / (enc.length - nLoad), "ratio")
  }
}
