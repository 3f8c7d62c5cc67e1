package repro.bench

import repro.SparkSpec
import repro.core.{Bytes, Scheme}
import repro.keys.KeySynth

/** Shared fixtures for the bench suites (one suite per paper table; see
  * DESIGN.md §2). Key counts are controlled by REPRO_BENCH_KEYS (default
  * 60 000 ≈ "SF 0.1" of the paper's 10⁷-scale runs — latency *ratios* and
  * memory *shapes* are the reproduction target, not absolutes).
  */
object BenchBase {
  val nKeys: Long = sys.env.getOrElse("REPRO_BENCH_KEYS", "60000").toLong

  @volatile private var cache = Map.empty[String, Array[Array[Byte]]]

  def keys(name: String): Array[Array[Byte]] = synchronized {
    cache.getOrElse(name, {
      val spark = SparkSpec.shared
      val n = if (name == "url") nKeys / 2 else nKeys
      val k = KeySynth.collectKeys(KeySynth.dataset(spark, name, n))
      cache += name -> k
      k
    })
  }

  def sample(name: String): Array[Array[Byte]] = {
    val k = keys(name)
    k.take(math.max(1000, k.length / 100))
  }

  def hope(ds: String, scheme: Scheme): repro.core.BuiltHope =
    repro.core.Hope.build(sample(ds), scheme)

  /** The Figure 8 scheme sweep (dictionary sizes on the x-axis). */
  def fig8Schemes: Seq[Scheme] = Seq(
    Scheme.SingleChar,
    Scheme.DoubleChar,
    Scheme.NGrams(3, 1 << 12), Scheme.NGrams(3, 1 << 16),
    Scheme.NGrams(4, 1 << 12), Scheme.NGrams(4, 1 << 16),
    Scheme.Alm(1 << 10, 12), Scheme.Alm(1 << 12, 12),
    Scheme.AlmImproved(1 << 12), Scheme.AlmImproved(1 << 16),
  )

  /** Deterministic non-present probes for FPR runs — drawn from the *same*
    * email distribution (different generator seed) and filtered against the
    * stored set, so they share domains/prefixes with real keys and actually
    * exercise the filter (easy negatives would report FPR ≈ 0 trivially).
    */
  def negatives(n: Int): Array[Array[Byte]] = {
    val spark = SparkSpec.shared
    val present = keys("email").map(Bytes.hex).toSet
    KeySynth.collectKeys(KeySynth.emails(spark, n * 2L, seed = 4242))
      .filterNot(k => present(Bytes.hex(k)))
      .take(n)
  }
}

/** Bench suites extend SparkSpec so `sbt bench/test` drives them through the
  * same forked JVM and shared session as the unit tests.
  */
abstract class BenchSuite extends SparkSpec
