package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, length, sum}

import repro.core.{Axis, BuiltHope, Bytes, CodeAssign, Hope, HopeSpark, Scheme, SymbolSelect}
import repro.keys.KeySynth

/** Inputs shared by the workloads, and the per-layer probes of the traced
  * run. Every probe times calls into a layer's public functions from outside.
  */
object Layers {

  /** Distinct keys of `df` in a seeded random order. Sorting first makes the
    * order independent of how Spark partitioned the distinct step.
    */
  def shuffledKeys(df: DataFrame, seed: Long): Array[Array[Byte]] = {
    val keys = KeySynth.collectKeys(df).sortWith(Bytes.compare(_, _) < 0)
    val perm = repro.keys.KeyShuffle.permutation(keys.length, seed)
    Array.tabulate(keys.length)(i => keys(perm(i)))
  }

  /** The build sample: HOPE's 1 % of the keys (at least 256), from a random order. */
  def sampleOf(shuffled: Array[Array[Byte]]): Array[Array[Byte]] =
    shuffled.take(math.min(shuffled.length, math.max(256, shuffled.length / 100)))

  /** Build sub-phases one by one (Symbol Selector, Dictionary, hit counts,
    * Code Assigner), and a plain `Hope.build` for the decomposition check.
    */
  def build(rep: Report, tr: Tracer, sample: Array[Array[Byte]], scheme: Scheme,
            reps: Int): Unit = {
    val t = Array.fill(5)(Seq.newBuilder[Double])
    var weightedBits = 0.0
    var entries = 0
    for (_ <- 0 until reps) tr.span("build.decomposed") { parent =>
      val t0 = System.nanoTime()
      val iv = tr.span("build.select", parent)(_ =>
        Axis.buildIntervals(SymbolSelect.extraBoundaries(scheme, sample)))
      val t1 = System.nanoTime()
      val index = tr.span("build.dict", parent)(_ => Hope.buildIndex(scheme, iv))
      val t2 = System.nanoTime()
      val hits = tr.span("build.hits", parent)(_ => SymbolSelect.hitCounts(sample, iv, index))
      val t3 = System.nanoTime()
      val codes = tr.span("build.code_assign", parent)(_ =>
        if (Scheme.usesHuTucker(scheme)) CodeAssign.huTucker(hits) else CodeAssign.fixedLength(iv.size))
      val t4 = System.nanoTime()
      Seq(t1 - t0, t2 - t1, t3 - t2, t4 - t3).zipWithIndex.foreach { case (d, i) => t(i) += d / 1e6 }
      weightedBits = hits.indices.map(i => hits(i).toDouble * codes(i).len).sum
      entries = iv.size
    }
    for (_ <- 0 until reps)
      t(4) += tr.span("build.plain")(_ => Measure.timed(Hope.build(sample, scheme))._2) / 1e6
    val Seq(select, dict, hits, assign, plain) = t.toSeq.map(b => Measure.median(b.result()))
    rep.put("select.ms", select, "ms")
    rep.put("select.hits_ms", hits, "ms")
    rep.put("code_assign.ms", assign, "ms")
    rep.put("code_assign.weighted_bits", weightedBits, "bits")
    rep.put("dict.build_ms", dict, "ms")
    rep.put("dict.entries", entries.toDouble, "count")
    rep.put("build.plain_ms", plain, "ms")
    rep.put("check.build_sum_over_plain", (select + dict + hits + assign) / plain, "ratio")
  }

  /** Dictionary lookups alone, walking each key symbol by symbol as the
    * encoder does, and the encoder itself over the same keys.
    */
  def dictAndEncode(rep: Report, tr: Tracer, hope: BuiltHope, keys: Array[Array[Byte]]): Unit = {
    val index = hope.index
    val lens = hope.intervals.symbolLens
    var lookups = 0L
    var sink = 0L
    val lookupNs = tr.span("probe.dict_lookup")(_ => Measure.medianNs(5) {
      lookups = 0L
      var i = 0
      while (i < keys.length) {
        val k = keys(i)
        var off = 0
        while (off < k.length) {
          val e = index.lookup(k, off)
          sink += e
          off += lens(e)
          lookups += 1
        }
        i += 1
      }
    })
    rep.put("dict.bytes", hope.dictMemoryBytes.toDouble, "B")
    rep.put("dict.lookup_ns", lookupNs / lookups, "ns")
    rep.put("dict.lookups_per_key", lookups.toDouble / keys.length, "count")

    val chars = keys.iterator.map(_.length.toLong).sum
    var bits = 0L
    val encodeNs = tr.span("probe.encode")(_ => Measure.medianNs(5) {
      bits = 0L
      var i = 0
      while (i < keys.length) { bits += hope.encodeTerminated(keys(i)).bitLen; i += 1 }
    })
    val a0 = Measure.allocatedBytes
    var i = 0
    while (i < keys.length) { sink += hope.encodeTerminated(keys(i)).bitLen; i += 1 }
    val alloc = Measure.allocatedBytes - a0
    Measure.consume(sink)
    rep.put("encode.ns_per_key", encodeNs / keys.length, "ns")
    rep.put("encode.ns_per_char", encodeNs / chars, "ns")
    rep.put("encode.alloc_bytes_per_key", alloc.toDouble / keys.length, "B")
    rep.put("encode.bits_per_key", bits.toDouble / keys.length, "bits")
  }

  /** Spark layer on a cached key column: HopeSpark's sample, a job that only
    * reads the keys, and one that runs them through `hope_encode`.
    */
  def spark(rep: Report, tr: Tracer, spark: SparkSession, log: SparkLog, df: DataFrame,
            hope: BuiltHope, seed: Long): Unit = {
    val sampleS = tr.span("probe.spark_sample")(_ =>
      Measure.medianNs(3)(HopeSpark.sampleKeys(df, "k", 0.01, seed))) / 1e9
    def jobs(name: String, q: => DataFrame): (Double, Vector[Vector[TaskRecord]]) = {
      log.job(spark)(q.collect())
      val runs = (0 until 5).map(_ => tr.span(name)(_ => log.job(spark)(q.collect())))
      (Measure.median(runs.map(_._2 / 1e6)), runs.map(_._3).toVector)
    }
    val (rawMs, _) = jobs("probe.spark_raw_job", df.select(sum(length(col("k")))))
    val (encMs, encTasks) = jobs("probe.spark_encode_job",
      HopeSpark.encodeColumn(df, "k", hope).select(sum(length(col("k_enc")))))
    val all = encTasks.flatten
    rep.put("spark.sample_s", sampleS, "s")
    rep.put("spark.raw_job_ms", rawMs, "ms")
    rep.put("spark.encode_only_job_ms", encMs, "ms")
    rep.put("spark.tasks", all.length.toDouble / encTasks.length, "count")
    rep.put("spark.task_run_ms", all.map(_.runMs).sum.toDouble / all.length, "ms")
    rep.put("spark.task_deser_ms", all.map(_.deserMs).sum.toDouble / all.length, "ms")
  }

  /** Prints the self time per span name. */
  def selfTimes(tr: Tracer): Unit =
    tr.selfTimes.foreach { case (name, n, total, self) =>
      println(f"span $name%-26s count $n%9d total_ms ${total / 1e6}%12.3f self_ms ${self / 1e6}%12.3f")
    }
}
