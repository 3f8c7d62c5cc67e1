package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** Metrics of one run, by name, in the order they are reported. Every metric
  * is also printed as a `metric <name> <value> <unit>` line as it arrives.
  */
final class Report {
  private val values = mutable.LinkedHashMap.empty[String, (Double, String)]
  /** Verified operations and the number whose result was wrong. */
  var attempted = 0L
  var failed = 0L

  def put(name: String, value: Double, unit: String): Unit = {
    require(!values.contains(name), s"metric $name reported twice")
    require(!value.isNaN && !value.isInfinite, s"metric $name is $value")
    values(name) = (value, unit)
    println(f"metric $name%-30s $value%.6g $unit")
  }

  def get(name: String): Double = values(name)._1

  /** One JSON object with every metric; `run.py` picks the ones it reports. */
  def json: String = {
    val ms = values.map { case (n, (v, u)) => s""""$n": {"value": ${v.toString}, "unit": "$u"}""" }
    s"""{"attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

/** Growable store of latencies in nanoseconds (an op longer than ~2 s is
  * clamped), for exact percentiles.
  */
final class Samples {
  private var a = new Array[Int](1 << 16)
  private var n = 0
  private var total = 0L

  def add(ns: Long): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, n * 2)
    a(n) = math.min(ns, Int.MaxValue.toLong).toInt
    n += 1
    total += ns
  }
  def count: Int = n
  def sumNs: Long = total

  /** Percentiles `ps` (each in [0, 1]), interpolated between order statistics. */
  def percentiles(ps: Double*): Seq[Double] = {
    require(n > 0, "no samples")
    val s = java.util.Arrays.copyOf(a, n)
    java.util.Arrays.sort(s)
    ps.map { p =>
      val pos = p * (n - 1)
      val lo = pos.toInt
      val hi = math.min(lo + 1, n - 1)
      s(lo) + (s(hi) - s(lo)) * (pos - lo)
    }
  }

  /** Reports `<name>_p50_ns`, `<name>_p99_ns` and the sample count. */
  def report(rep: Report, name: String): Unit = {
    val Seq(p50, p99) = percentiles(0.5, 0.99)
    rep.put(s"${name}_p50_ns", p50, "ns")
    rep.put(s"${name}_p99_ns", p99, "ns")
    rep.put(s"${name}_samples", n.toDouble, "count")
  }
}

/** Per-round figures of a timed phase; a round is a short stretch of work
  * (10,000 queries, or one Spark job) on one of `streams` query streams. The
  * machine is shared, and its speed changes in phases of seconds by up to a
  * third, so each stream's figures are those of its least disturbed round:
  * the highest round rate and the lowest round value of each latency
  * percentile. The streams draw their Zipf-hot keys differently, and the
  * reported figure is the median over streams, so that it does not hang on
  * the few keys one draw makes hot.
  */
final class Rounds(streams: Int) {
  private val rates, p50s, p99s = Array.fill(streams)(mutable.ArrayBuffer.empty[Double])
  /** Time spent in operations so far, over all rounds. */
  var busyNs = 0L

  def count: Int = rates.map(_.length).sum
  private def bestOfEach(xs: Array[mutable.ArrayBuffer[Double]], best: Seq[Double] => Double): Double =
    Measure.median(xs.toSeq.filter(_.nonEmpty).map(b => best(b.toSeq)))
  def opsPerS: Double = bestOfEach(rates, _.max)

  /** One round on `stream`: its op latencies, and `ops` completed in `ns` of op time. */
  def add(stream: Int, latencies: Samples, ops: Long, ns: Long): Unit = {
    val Seq(p50, p99) = latencies.percentiles(0.5, 0.99)
    rates(stream) += ops / (ns / 1e9)
    p50s(stream) += p50
    p99s(stream) += p99
    busyNs += ns
  }

  def report(rep: Report): Unit = {
    rep.put("ops_per_s", opsPerS, "1/s")
    rep.put("latency_p50_us", bestOfEach(p50s, _.min) / 1e3, "us")
    rep.put("latency_p99_us", bestOfEach(p99s, _.min) / 1e3, "us")
    rep.put("rounds", count.toDouble, "count")
    rep.put("rounds.rate_median", Measure.median(rates.toSeq.flatten), "1/s")
  }
}

object Measure {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "no values")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Wall nanoseconds of `f`, with its result. */
  def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r = f
    (r, System.nanoTime() - t0)
  }

  /** Median wall nanoseconds of `reps` runs of `f`, after one untimed run. */
  def medianNs(reps: Int)(f: => Unit): Double = {
    f
    median(Seq.fill(reps)(timed(f)._2.toDouble))
  }

  @volatile private var sunk = 0L
  /** Keeps a probe loop's result alive, so the JIT cannot drop the loop. */
  def consume(v: Long): Unit = sunk += v

  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  def gcMs: Long = gcBeans.map(_.getCollectionTime).filter(_ >= 0).sum
  def gcCount: Long = gcBeans.map(_.getCollectionCount).filter(_ >= 0).sum

  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes: Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)
}

/** JVM garbage collection over one phase: `jvm.gc_ms` and `jvm.gc_count`. */
final class GcWindow {
  private val ms0 = Measure.gcMs
  private val n0 = Measure.gcCount
  def report(rep: Report): Unit = {
    rep.put("jvm.gc_ms", (Measure.gcMs - ms0).toDouble, "ms")
    rep.put("jvm.gc_count", (Measure.gcCount - n0).toDouble, "count")
  }
}

/** Spans (name, start, end, parent, op id) kept in memory up to `capacity`
  * and written out when the run ends. Single-threaded: Spark task spans are
  * added from the driver thread after their job ends.
  */
final class Tracer(capacity: Int) {
  private val names = mutable.ArrayBuffer.empty[String]
  private val ids = mutable.HashMap.empty[String, Int]
  private val nameOf = new Array[Int](capacity)
  private val startNs = new Array[Long](capacity)
  private val endNs = new Array[Long](capacity)
  private val parentOf = new Array[Int](capacity)
  private val opOf = new Array[Long](capacity)
  private var size = 0

  def id(name: String): Int = ids.getOrElseUpdate(name, { names += name; names.length - 1 })

  /** Opens a span and returns its index, or -1 once the buffer is full. */
  def begin(name: Int, parent: Int, op: Long): Int =
    add(name, parent, op, System.nanoTime(), 0L)

  def end(span: Int): Unit = if (span >= 0) endNs(span) = System.nanoTime()

  def add(name: Int, parent: Int, op: Long, start: Long, end: Long): Int =
    if (size >= capacity) -1
    else {
      val i = size
      nameOf(i) = name; parentOf(i) = parent; opOf(i) = op
      startNs(i) = start; endNs(i) = end
      size += 1
      i
    }

  /** Runs `f` inside a span named `name`. */
  def span[A](name: String, parent: Int = -1, op: Long = 0L)(f: Int => A): A = {
    val s = begin(id(name), parent, op)
    try f(s) finally end(s)
  }

  /** Per span name: (count, total ns, self ns). Self time is a span's
    * duration less the union of its children's intervals.
    */
  def selfTimes: Seq[(String, Long, Long, Long)] = {
    val children = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
    var i = 0
    while (i < size) {
      if (parentOf(i) >= 0) children.getOrElseUpdate(parentOf(i), mutable.ArrayBuffer.empty) += i
      i += 1
    }
    val count = new Array[Long](names.length)
    val total = new Array[Long](names.length)
    val self = new Array[Long](names.length)
    i = 0
    while (i < size) {
      val dur = endNs(i) - startNs(i)
      var covered = 0L
      children.get(i).foreach { cs =>
        var curS = Long.MinValue
        var curE = Long.MinValue
        cs.map(c => (math.max(startNs(c), startNs(i)), math.min(endNs(c), endNs(i))))
          .filter(iv => iv._2 > iv._1).sortBy(_._1).foreach { case (s, e) =>
            if (s > curE) { if (curE > curS) covered += curE - curS; curS = s; curE = e }
            else curE = math.max(curE, e)
          }
        if (curE > curS) covered += curE - curS
      }
      val n = nameOf(i)
      count(n) += 1; total(n) += dur; self(n) += dur - covered
      i += 1
    }
    names.indices.map(n => (names(n), count(n), total(n), self(n)))
  }

  /** Writes one tab-separated line per span: name, start, end, parent, op. */
  def write(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val w = new java.io.PrintWriter(java.nio.file.Files.newBufferedWriter(path))
    try {
      w.println("span\tname\tstart_ns\tend_ns\tparent\top")
      var i = 0
      while (i < size) {
        w.print(i); w.print('\t'); w.print(names(nameOf(i))); w.print('\t')
        w.print(startNs(i)); w.print('\t'); w.print(endNs(i)); w.print('\t')
        w.print(parentOf(i)); w.print('\t'); w.println(opOf(i))
        i += 1
      }
    } finally w.close()
  }
}

/** Task records from Spark's public listener interface. */
final case class TaskRecord(launchMs: Long, finishMs: Long, runMs: Long, deserMs: Long)

final class SparkLog extends SparkListener {
  private val tasks = new ConcurrentLinkedQueue[TaskRecord]()
  private val endedJobs = ConcurrentHashMap.newKeySet[Integer]()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    val i = e.taskInfo
    if (m != null && i != null)
      tasks.add(TaskRecord(i.launchTime, i.finishTime,
        m.executorRunTime, m.executorDeserializeTime))
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = endedJobs.add(e.jobId)

  private def drain(): Vector[TaskRecord] = {
    val b = Vector.newBuilder[TaskRecord]
    var t = tasks.poll()
    while (t != null) { b += t; t = tasks.poll() }
    b.result()
  }

  private var groups = 0

  /** Runs `f` as one job group; returns its result, wall nanoseconds and the
    * tasks of its jobs. Task events arrive on the listener bus before the
    * job's end event, so waiting for every job end collects all its tasks.
    */
  def job[A](spark: SparkSession)(f: => A): (A, Long, Vector[TaskRecord]) = {
    val sc = spark.sparkContext
    groups += 1
    val group = s"perfbench-$groups"
    drain()
    sc.setJobGroup(group, group)
    try {
      val (r, ns) = Measure.timed(f)
      val jobIds = sc.statusTracker.getJobIdsForGroup(group)
      val deadline = System.nanoTime() + 60L * 1000 * 1000 * 1000
      while (!jobIds.forall(id => endedJobs.contains(id))) {
        require(System.nanoTime() < deadline, s"listener missed the end of job group $group")
        Thread.sleep(1)
      }
      (r, ns, drain())
    } finally sc.clearJobGroup()
  }
}
