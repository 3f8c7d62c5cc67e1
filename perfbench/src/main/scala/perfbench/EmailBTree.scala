package perfbench

import org.apache.spark.sql.SparkSession

import repro.btree.BPlusTree
import repro.core.{Bytes, Hope, Scheme}
import repro.keys.{KeyShuffle, KeySynth, Zipf}

/** `email-btree-sc`: ~100K email keys, a Single-Char dictionary from a 1 %
  * sample, and a B+tree loaded with 90 % of the keys. One closed-loop client
  * issues a mixed stream: 90 % Zipf point gets, 5 % scans of 50 from a Zipf
  * key, 5 % inserts of the held-out keys. Every op encodes its key inside the
  * timed interval. A stream ends when the held-out keys are all inserted; the
  * tree is then reloaded (untimed) so inserts stay inserts.
  */
object EmailBTree {
  val Keys = 100000
  val ScanLen = 50
  /** Queries per round of the timed phase. */
  val RoundOps = 10000
  /** Query streams, each with its own Zipf-hot keys, run in turn. */
  val Streams = 4
  private final val Get = 0
  private final val Scan = 1
  private final val Insert = 2

  /** Keys in load order (the first `nLoad` are loaded, the rest held out),
    * the dictionary, and the loaded keys in encoded form for reloads.
    */
  final class State(val keys: Array[Array[Byte]], val hope: repro.core.BuiltHope,
                    val encLoad: Array[Array[Byte]]) {
    def nLoad: Int = encLoad.length
    def load(): BPlusTree = {
      val t = new BPlusTree()
      var i = 0
      while (i < nLoad) { t.insert(encLoad(i), i.toLong); i += 1 }
      t
    }
  }

  /** Data generation, sample, dictionary build and bulk load. */
  def setup(spark: SparkSession, tr: Tracer, seed: Long,
            genS: scala.collection.mutable.Builder[Double, Seq[Double]]): (State, BPlusTree) =
    tr.span("setup") { s =>
      val (keys, genNs) = Measure.timed(tr.span("keys.gen", s)(_ =>
        Layers.shuffledKeys(KeySynth.emails(spark, Keys, seed), seed)))
      genS += genNs / 1e9
      val hope = tr.span("build", s)(_ => Hope.build(Layers.sampleOf(keys), Scheme.SingleChar))
      tr.span("tree.bulk_load", s) { _ =>
        val tree = new BPlusTree()
        val encLoad = new Array[Array[Byte]]((keys.length * 0.9).toInt)
        var i = 0
        while (i < encLoad.length) {
          encLoad(i) = hope.encodeTerminated(keys(i)).bytes
          tree.insert(encLoad(i), i.toLong)
          i += 1
        }
        (new State(keys, hope, encLoad), tree)
      }
    }

  /** One op stream, seeded: every held-out key is inserted once at a
    * random position (5 % of the ops); the other ops are Zipf gets and, one
    * in 19, scans.
    */
  private def stream(st: State, seed: Long): (Array[Int], Array[Int]) = {
    val nHeld = st.keys.length - st.nLoad
    val n = nHeld * 20
    val zipf = new Zipf(st.nLoad, seed = seed)
    val perm = KeyShuffle.permutation(st.nLoad, seed + 1)
    val insertAt = KeyShuffle.permutation(n, seed + 2)
    val rnd = new scala.util.Random(seed + 3)
    val kinds = new Array[Int](n)
    val targets = new Array[Int](n)
    var held = 0
    var i = 0
    while (i < n) {
      if (insertAt(i) < nHeld) {
        kinds(i) = Insert; targets(i) = st.nLoad + held; held += 1
      } else {
        kinds(i) = if (rnd.nextInt(19) == 0) Scan else Get
        targets(i) = perm(zipf.next())
      }
      i += 1
    }
    (kinds, targets)
  }

  final class Latencies {
    val rounds = new Rounds(Streams)
    val get, scan, insert = new Samples
  }

  /** Runs one stream on `tree`, a round per `RoundOps` queries, and
    * verifies every result.
    */
  private def runStream(st: State, tree: BPlusTree, kinds: Array[Int], targets: Array[Int],
                        streamIdx: Int, lat: Latencies, rep: Report, tr: Tracer, tracing: Boolean,
                        opBase: Long): Unit = {
    val hope = st.hope
    val names = if (tracing) Array("op", "encode", "tree.get", "tree.scan", "tree.insert").map(tr.id) else null
    var all = new Samples
    var i = 0
    while (i < kinds.length) {
      val kind = kinds(i)
      val k = targets(i)
      val opSpan = if (tracing) tr.begin(names(0), -1, opBase + i) else -1
      val t0 = System.nanoTime()
      val encSpan = if (tracing) tr.begin(names(1), opSpan, opBase + i) else -1
      val e = hope.encodeTerminated(st.keys(k)).bytes
      if (tracing) tr.end(encSpan)
      val treeSpan = if (tracing) tr.begin(names(2 + kind), opSpan, opBase + i) else -1
      var got = 0L
      var scanned: scala.collection.mutable.ArrayBuffer[(Array[Byte], Long)] = null
      if (kind == Get) got = tree.get(e)
      else if (kind == Scan) scanned = tree.scan(e, ScanLen)
      else tree.insert(e, k.toLong)
      if (tracing) { tr.end(treeSpan); tr.end(opSpan) }
      val ns = System.nanoTime() - t0
      all.add(ns)
      rep.attempted += 1
      if (kind == Get) {
        lat.get.add(ns)
        if (got != k) rep.failed += 1
      } else if (kind == Scan) {
        lat.scan.add(ns)
        if (!scanOk(scanned, e, k)) rep.failed += 1
      } else lat.insert.add(ns)
      i += 1
      if (all.count == RoundOps || i == kinds.length) {
        lat.rounds.add(streamIdx, all, all.count, all.sumNs)
        all = new Samples
      }
    }
    // every held-out key is now in the tree exactly once, with its value
    if (tree.size != st.keys.length) rep.failed += 1
    var h = st.nLoad
    while (h < st.keys.length) {
      if (tree.get(hope.encodeTerminated(st.keys(h)).bytes) != h) rep.failed += 1
      h += 1
    }
  }

  /** A scan from a loaded key starts at that key and returns keys in strictly
    * increasing order, at most `ScanLen` of them.
    */
  private def scanOk(r: scala.collection.mutable.ArrayBuffer[(Array[Byte], Long)],
                     start: Array[Byte], k: Int): Boolean = {
    if (r.isEmpty || r.size > ScanLen || r(0)._2 != k || Bytes.compare(r(0)._1, start) != 0) return false
    var j = 1
    while (j < r.size) {
      if (Bytes.compare(r(j - 1)._1, r(j)._1) >= 0) return false
      j += 1
    }
    true
  }

  /** Runs the streams in turn: at least one, then more until `seconds` of
    * op time are measured or `maxRuns` are run. The tree is reloaded,
    * untimed, before each.
    */
  private def pass(st: State, lat: Latencies, rep: Report, tr: Tracer, tracing: Boolean,
                   seconds: Double, seed: Long, maxRuns: Int = Int.MaxValue): Unit = {
    val streams = Array.tabulate(Streams)(s => stream(st, seed + 1000L * s))
    var runs = 0
    while (runs == 0 || (lat.rounds.busyNs < seconds * 1e9 && runs < maxRuns)) {
      val (kinds, targets) = streams(runs % Streams)
      runStream(st, st.load(), kinds, targets, runs % Streams, lat, rep, tr, tracing,
        runs.toLong * kinds.length)
      runs += 1
    }
  }

  def run(spark: SparkSession, log: SparkLog, rep: Report, tr: Tracer, seed: Long,
          seconds: Int, trace: Boolean): Unit = {
    val genS = Seq.newBuilder[Double]
    val setups = (0 until 5).map(_ => Measure.timed(setup(spark, tr, seed, genS)))
    val (st, tree0) = setups.last._1
    val setupS = Measure.median(setups.map(_._2 / 1e9))

    // warm-up: each stream once, untimed
    pass(st, new Latencies, new Report, tr, tracing = false, seconds = 0.0, seed, maxRuns = Streams)

    if (!trace) {
      val lat = new Latencies
      pass(st, lat, rep, tr, tracing = false, seconds, seed)
      rep.put("setup_s", setupS, "s")
      lat.rounds.report(rep)
      rep.put("cpr", Hope.compressionRate(st.hope, st.keys.iterator), "ratio")
      rep.put("index_bytes_per_key", (tree0.memoryBytes + st.hope.dictMemoryBytes).toDouble / st.nLoad, "B")
      lat.get.report(rep, "lookup")
      lat.scan.report(rep, "scan")
      lat.insert.report(rep, "insert")
    } else {
      rep.put("keys.gen_s", Measure.median(genS.result()), "s")
      val gc = new GcWindow
      val plain = new Latencies
      pass(st, plain, rep, tr, tracing = false, seconds / 2.0, seed)
      gc.report(rep)
      val traced = new Latencies
      pass(st, traced, rep, tr, tracing = true, seconds / 2.0, seed, maxRuns = 1)
      val plainOps = plain.rounds.opsPerS
      rep.put("trace.overhead_pct", (plainOps - traced.rounds.opsPerS) / plainOps * 100, "%")

      Layers.build(rep, tr, Layers.sampleOf(st.keys), Scheme.SingleChar, reps = 3)
      Layers.dictAndEncode(rep, tr, st.hope, st.keys)
      treeProbe(rep, tr, st, seed)
      val getP50 = plain.get.percentiles(0.5).head
      rep.put("check.layers_over_e2e",
        (rep.get("encode.ns_per_key") + rep.get("tree.get_ns")) / getP50, "ratio")
      val df = KeySynth.emails(spark, Keys, seed).cache()
      df.count()
      Layers.spark(rep, tr, spark, log, df, st.hope, seed)
      df.unpersist()
    }
  }

  /** The B+tree alone, on keys encoded beforehand. */
  private def treeProbe(rep: Report, tr: Tracer, st: State, seed: Long): Unit = {
    val loadNs = tr.span("probe.tree_load")(_ => Measure.medianNs(3)(st.load()))
    val tree = st.load()
    val zipf = new Zipf(st.nLoad, seed = seed + 3)
    val perm = KeyShuffle.permutation(st.nLoad, seed + 4)
    val probes = Array.fill(100000)(st.encLoad(perm(zipf.next())))
    var sink = 0L
    val getNs = tr.span("probe.tree_get")(_ => Measure.medianNs(5) {
      var i = 0
      while (i < probes.length) { sink += tree.get(probes(i)); i += 1 }
    })
    val scans = probes.take(10000)
    val scanNs = tr.span("probe.tree_scan")(_ => Measure.medianNs(5) {
      var i = 0
      while (i < scans.length) { sink += tree.scan(scans(i), ScanLen).size; i += 1 }
    })
    val absent = (st.nLoad until st.keys.length).map(i => st.hope.encodeTerminated(st.keys(i)).bytes)
    val fp = absent.count(tree.get(_) != -1L)
    Measure.consume(sink)
    rep.put("tree.get_ns", getNs / probes.length, "ns")
    rep.put("tree.scan_ns", scanNs / scans.length, "ns")
    rep.put("tree.load_ns_per_key", loadNs / st.nLoad, "ns")
    rep.put("tree.bytes_per_key", tree.memoryBytes.toDouble / st.nLoad, "B")
    rep.put("tree.fpr", fp.toDouble / absent.length, "ratio")
  }
}
