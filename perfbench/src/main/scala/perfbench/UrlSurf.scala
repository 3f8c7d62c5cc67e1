package perfbench

import org.apache.spark.sql.SparkSession

import repro.core.{BuiltHope, Bytes, Hope, Scheme}
import repro.keys.{KeyShuffle, KeySynth, Zipf}
import repro.surf.Surf

/** `url-surf-3g`: ~50K URL keys, a 3-Grams(64K) dictionary (bitmap trie) from
  * a 1 % sample, and SuRF with 8 suffix bits bulk-built from the sorted
  * encoded keys. One closed-loop client issues a read-only stream: 80 % Zipf
  * `mayContain` on present keys, 10 % on absent keys of the same
  * distribution, 10 % closed ranges [k, k'] where k' is k with its last byte
  * incremented. Each op encodes its key(s) inside the timed interval.
  */
object UrlSurf {
  val Keys = 50000
  val Absent = 10000
  val SuffixBits = 8
  /** Query streams of 50,000 queries, each with its own Zipf-hot keys, run in turn. */
  val Streams = 4
  val StreamOps = 50000
  /** Queries per round of the timed phase. */
  val RoundOps = 10000
  val scheme: Scheme = Scheme.NGrams(3, 1 << 16)
  private final val Point = 0
  private final val Miss = 1
  private final val Range = 2

  final class State(val keys: Array[Array[Byte]], val hope: BuiltHope, val surf: Surf,
                    val sortedEnc: Array[Array[Byte]])

  /** Data generation, sample, dictionary build and SuRF build. */
  def setup(spark: SparkSession, tr: Tracer, seed: Long,
            genS: scala.collection.mutable.Builder[Double, Seq[Double]]): State =
    tr.span("setup") { s =>
      val (keys, genNs) = Measure.timed(tr.span("keys.gen", s)(_ =>
        Layers.shuffledKeys(KeySynth.urls(spark, Keys, seed), seed)))
      genS += genNs / 1e9
      val hope = tr.span("build", s)(_ => Hope.build(Layers.sampleOf(keys), scheme))
      tr.span("tree.bulk_load", s) { _ =>
        val sortedEnc = keys.map(hope.encodeTerminated(_).bytes).sortWith(Bytes.compare(_, _) < 0)
        new State(keys, hope, Surf(sortedEnc, SuffixBits), sortedEnc)
      }
    }

  /** Keys of the same generator under another seed that are not stored. */
  def absentKeys(spark: SparkSession, st: State, seed: Long): Array[Array[Byte]] = {
    val present = st.keys.iterator.map(Bytes.str).toSet
    Layers.shuffledKeys(KeySynth.urls(spark, Absent + Absent / 10, seed + 1000003), seed)
      .filterNot(k => present.contains(Bytes.str(k))).take(Absent)
  }

  /** The hi end of a closed range from `k`: its last byte incremented. */
  private def rangeHi(k: Array[Byte]): Array[Byte] = {
    val hi = k.clone()
    hi(hi.length - 1) = (hi(hi.length - 1) + 1).toByte
    hi
  }

  final class Latencies {
    val rounds = new Rounds(Streams)
    val point, miss, range = new Samples
    var falsePositives = 0L
  }

  /** A seeded stream of (kind, key, range end). */
  private def stream(st: State, absent: Array[Array[Byte]], seed: Long, n: Int)
      : (Array[Int], Array[Array[Byte]], Array[Array[Byte]]) = {
    val zipf = new Zipf(st.keys.length, seed = seed)
    val perm = KeyShuffle.permutation(st.keys.length, seed + 1)
    val missZipf = new Zipf(absent.length, seed = seed + 2)
    val rnd = new scala.util.Random(seed + 3)
    val kinds = new Array[Int](n)
    val lo = new Array[Array[Byte]](n)
    val hi = new Array[Array[Byte]](n)
    var i = 0
    while (i < n) {
      val r = rnd.nextInt(10)
      kinds(i) = if (r < 8) Point else if (r == 8) Miss else Range
      lo(i) = if (kinds(i) == Miss) absent(missZipf.next()) else st.keys(perm(zipf.next()))
      if (kinds(i) == Range) hi(i) = rangeHi(lo(i))
      i += 1
    }
    (kinds, lo, hi)
  }

  /** Runs the streams in turn, a round per `RoundOps` queries: at least one
    * stream, then more until `seconds` of op time are measured or `maxRuns`
    * streams are run. Every present key and every range from a present key
    * must be reported.
    */
  private def pass(st: State, streams: Seq[(Array[Int], Array[Array[Byte]], Array[Array[Byte]])],
                   lat: Latencies, rep: Report, tr: Tracer, tracing: Boolean,
                   seconds: Double, maxRuns: Int = Int.MaxValue): Unit = {
    val hope = st.hope
    val surf = st.surf
    val names = if (tracing) Array("op", "encode", "tree.get", "tree.get", "tree.scan").map(tr.id) else null
    var run = 0
    while (run == 0 || (lat.rounds.busyNs < seconds * 1e9 && run < maxRuns)) {
      val (kinds, lo, hi) = streams(run % Streams)
      var all = new Samples
      var i = 0
      while (i < kinds.length) {
        val kind = kinds(i)
        val op = run.toLong * kinds.length + i
        val opSpan = if (tracing) tr.begin(names(0), -1, op) else -1
        val t0 = System.nanoTime()
        val encSpan = if (tracing) tr.begin(names(1), opSpan, op) else -1
        val a = hope.encodeTerminated(lo(i)).bytes
        val b = if (kind == Range) hope.encodeTerminated(hi(i)).bytes else null
        if (tracing) tr.end(encSpan)
        val treeSpan = if (tracing) tr.begin(names(2 + kind), opSpan, op) else -1
        val yes = if (kind == Range) surf.mayContainRange(a, b) else surf.mayContain(a)
        if (tracing) { tr.end(treeSpan); tr.end(opSpan) }
        val ns = System.nanoTime() - t0
        all.add(ns)
        rep.attempted += 1
        if (kind == Miss) {
          lat.miss.add(ns)
          if (yes) lat.falsePositives += 1
        } else {
          (if (kind == Point) lat.point else lat.range).add(ns)
          if (!yes) rep.failed += 1
        }
        i += 1
        if (all.count == RoundOps) {
          lat.rounds.add(run % Streams, all, all.count, all.sumNs)
          all = new Samples
        }
      }
      run += 1
    }
  }

  def run(spark: SparkSession, log: SparkLog, rep: Report, tr: Tracer, seed: Long,
          seconds: Int, trace: Boolean): Unit = {
    val genS = Seq.newBuilder[Double]
    val setups = (0 until 5).map(_ => Measure.timed(setup(spark, tr, seed, genS)))
    val st = setups.last._1
    val setupS = Measure.median(setups.map(_._2 / 1e9))
    val absent = absentKeys(spark, st, seed)
    val streams = (0 until Streams).map(s => stream(st, absent, seed + 1000L * s, StreamOps))

    // warm-up: each stream once, untimed
    pass(st, streams, new Latencies, new Report, tr, tracing = false, 0.0, maxRuns = Streams)

    if (!trace) {
      val lat = new Latencies
      pass(st, streams, lat, rep, tr, tracing = false, seconds)
      rep.put("setup_s", setupS, "s")
      lat.rounds.report(rep)
      rep.put("cpr", Hope.compressionRate(st.hope, st.keys.iterator), "ratio")
      rep.put("index_bytes_per_key", (st.surf.memoryBytes + st.hope.dictMemoryBytes).toDouble / st.keys.length, "B")
      lat.point.report(rep, "lookup")
      lat.miss.report(rep, "absent")
      lat.range.report(rep, "range")
      rep.put("fpr", lat.falsePositives.toDouble / lat.miss.count, "ratio")
    } else {
      rep.put("keys.gen_s", Measure.median(genS.result()), "s")
      val gc = new GcWindow
      val plain = new Latencies
      pass(st, streams, plain, rep, tr, tracing = false, seconds / 2.0)
      gc.report(rep)
      val traced = new Latencies
      pass(st, streams, traced, rep, tr, tracing = true, seconds / 2.0, maxRuns = 1)
      val plainOps = plain.rounds.opsPerS
      rep.put("trace.overhead_pct", (plainOps - traced.rounds.opsPerS) / plainOps * 100, "%")

      Layers.build(rep, tr, Layers.sampleOf(st.keys), scheme, reps = 3)
      Layers.dictAndEncode(rep, tr, st.hope, st.keys)
      treeProbe(rep, tr, st, absent, seed)
      rep.put("check.layers_over_e2e",
        (rep.get("encode.ns_per_key") + rep.get("tree.get_ns")) / plain.point.percentiles(0.5).head, "ratio")
      val df = KeySynth.urls(spark, Keys, seed).cache()
      df.count()
      Layers.spark(rep, tr, spark, log, df, st.hope, seed)
      df.unpersist()
    }
  }

  /** SuRF alone, on keys encoded beforehand. */
  private def treeProbe(rep: Report, tr: Tracer, st: State, absent: Array[Array[Byte]],
                        seed: Long): Unit = {
    val loadNs = tr.span("probe.tree_load")(_ => Measure.medianNs(3)(Surf(st.sortedEnc, SuffixBits)))
    val zipf = new Zipf(st.keys.length, seed = seed + 3)
    val perm = KeyShuffle.permutation(st.keys.length, seed + 4)
    val raw = Array.fill(50000)(st.keys(perm(zipf.next())))
    val probes = raw.map(st.hope.encodeTerminated(_).bytes)
    val ranges = raw.take(10000).map(k => (st.hope.encodeTerminated(k).bytes,
      st.hope.encodeTerminated(rangeHi(k)).bytes))
    var sink = 0L
    val getNs = tr.span("probe.tree_get")(_ => Measure.medianNs(5) {
      var i = 0
      while (i < probes.length) { if (st.surf.mayContain(probes(i))) sink += 1; i += 1 }
    })
    val scanNs = tr.span("probe.tree_scan")(_ => Measure.medianNs(5) {
      var i = 0
      while (i < ranges.length) { if (st.surf.mayContainRange(ranges(i)._1, ranges(i)._2)) sink += 1; i += 1 }
    })
    val fp = absent.count(k => st.surf.mayContain(st.hope.encodeTerminated(k).bytes))
    Measure.consume(sink)
    rep.put("tree.get_ns", getNs / probes.length, "ns")
    rep.put("tree.scan_ns", scanNs / ranges.length, "ns")
    rep.put("tree.load_ns_per_key", loadNs / st.sortedEnc.length, "ns")
    rep.put("tree.bytes_per_key", st.surf.memoryBytes.toDouble / st.keys.length, "B")
    rep.put("tree.fpr", fp.toDouble / absent.length, "ratio")
  }
}
