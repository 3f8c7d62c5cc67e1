package repro.keys

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest
import java.util.{HexFormat, SplittableRandom}

import org.apache.spark.sql.{DataFrame, Encoders, SparkSession}
import org.apache.spark.sql.functions.col

/** Synthetic stand-ins for the paper's three string-key datasets (§6). See
  * DESIGN.md §3 for the substitution rationale.
  *
  * Key `i` of a dataset is a pure function of (seed, i), drawn in plain Scala
  * from its own counter-based random stream; a key set is the distinct keys
  * among draws `0 until n` (see [[draw]]). So a set is deterministic in
  * (n, seed): the same keys in the same order on every core count, although
  * [[draw]] makes its draws on every core of the JDK common pool. Key
  * functions must therefore be pure and thread-safe (`urlKey` keeps its MD5
  * digest in a `ThreadLocal`). The DataFrame accessors hold that set in one
  * partition, in that order.
  *
  *  - emails: host-reversed ("com.gmail@first.last123"), Zipf-skewed domains,
  *    avg ≈ 22 bytes — heavy shared prefixes within popular domains.
  *  - wiki: capitalized word sequences joined by '_', Zipf word choice,
  *    avg ≈ 21 bytes — natural-language letter statistics.
  *  - urls: "http://<host>/<seg>/<seg>-<seg>/<seg>/<seg>/article-<n>.html?ref=<seg>&s=<hash>"
  *    with Zipf hosts and segments, avg ≈ 100 bytes — very long shared prefixes.
  *
  * All keys are NUL-free printable ASCII, as required by the 0x00-terminator
  * integration convention.
  */
object KeySynth {

  /** Deterministic pseudo-word vocabulary (syllable product, seeded). */
  private def mkWords(count: Int, seed: Int): Array[String] = {
    val rnd = new scala.util.Random(seed)
    val onset = Array("b", "br", "c", "ch", "d", "f", "g", "gr", "h", "j", "k", "l",
      "m", "n", "p", "pr", "r", "s", "st", "t", "tr", "v", "w", "z")
    val nucleus = Array("a", "e", "i", "o", "u", "ai", "ea", "io", "ou")
    val coda = Array("", "n", "r", "s", "t", "l", "m", "ck", "nd", "st")
    Array.fill(count) {
      val syl = 1 + rnd.nextInt(3)
      (0 until syl).map { _ =>
        onset(rnd.nextInt(onset.length)) + nucleus(rnd.nextInt(nucleus.length)) +
          coda(rnd.nextInt(coda.length))
      }.mkString
    }.distinct
  }

  private val firstNames = mkWords(400, 101)
  private val lastNames  = mkWords(600, 202)
  private val wikiWords  = mkWords(1200, 303)
  private val pathWords  = mkWords(500, 404)

  /** (reversed-host, weight-rank) — gmail/yahoo lead, as in Appendix C. */
  private val domains: Array[String] = Array(
    "com.gmail", "com.yahoo", "com.hotmail", "com.outlook", "com.aol",
    "com.icloud", "net.comcast", "com.msn", "com.live", "org.mail",
    "edu.cmu", "edu.mit", "com.proton", "de.gmx", "de.web",
    "fr.orange", "uk.co.btinternet", "com.me", "net.verizon", "com.att",
    "com.sbcglobal", "it.libero", "com.rediffmail", "jp.co.yahoo", "cn.163",
  )

  private val urlHosts: Array[String] = Array(
    "en.wikipedia.org", "www.google.com", "www.youtube.com", "www.amazon.com",
    "www.facebook.com", "www.bbc.co.uk", "www.nytimes.com", "www.reddit.com",
    "github.com", "stackoverflow.com", "www.cnn.com", "www.imdb.com",
    "www.ebay.com", "www.apple.com", "www.microsoft.com", "news.ycombinator.com",
    "www.linkedin.com", "www.etsy.com", "www.walmart.com", "www.target.com",
  )

  /** The random stream of key `i`: a `SplittableRandom` seeded by a mix of
    * `seed` and `i`. The mix is SplitMix64's finaliser [Steele et al.,
    * OOPSLA'14] over `seed · γ + i`, so neighbouring indices start unrelated
    * streams and key `i` depends on nothing but (seed, i) — a counter-based
    * generator in the sense of Salmon et al. (SC'11).
    */
  private def stream(seed: Long, i: Long): SplittableRandom = {
    var z = seed * 0x9E3779B97F4A7C15L + i
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    new SplittableRandom(z ^ (z >>> 31))
  }

  /** Zipf-ish choice: word floor(n · u^k) of n concentrates on small indices. */
  private def skewed(words: Array[String], r: SplittableRandom, k: Double): String =
    words(math.min(words.length - 1, (math.pow(r.nextDouble(), k) * words.length).toInt))

  /** Email key `i`, host-reversed like the paper's dataset; 60 % of the keys
    * end in a number below 1000.
    */
  def emailKey(seed: Long, i: Long): String = {
    val r = stream(seed, i)
    val sb = new java.lang.StringBuilder(32)
      .append(skewed(domains, r, 2.5)).append('@')
      .append(skewed(firstNames, r, 1.5)).append('.')
      .append(skewed(lastNames, r, 1.5))
    if (r.nextDouble() < 0.6) sb.append((r.nextDouble() * 1000).toInt)
    sb.toString
  }

  /** Wikipedia-title-like key `i`: two to four words joined by '_', the first
    * capitalised, with a third word half the time and a "_(word)"
    * qualifier 15 % of the time.
    */
  def wikiKey(seed: Long, i: Long): String = {
    val r = stream(seed, i)
    val first = skewed(wikiWords, r, 1.8)
    val sb = new java.lang.StringBuilder(32)
      .append(Character.toUpperCase(first.charAt(0))).append(first, 1, first.length)
      .append('_').append(skewed(wikiWords, r, 1.8))
    if (r.nextDouble() < 0.5) sb.append('_').append(skewed(wikiWords, r, 1.8))
    if (r.nextDouble() < 0.15) sb.append("_(").append(skewed(wikiWords, r, 1.8)).append(')')
    sb.toString
  }

  private val md5 = ThreadLocal.withInitial[MessageDigest](() => MessageDigest.getInstance("MD5"))

  /** URL key `i`, with long shared prefixes (avg ≈ 100 bytes); its tail is
    * the first 8 hex digits of md5(i ‖ seed).
    */
  def urlKey(seed: Long, i: Long): String = {
    val r = stream(seed, i)
    def seg = skewed(pathWords, r, 1.3)
    val sb = new java.lang.StringBuilder(128)
      .append("http://").append(skewed(urlHosts, r, 2.0))
      .append('/').append(seg).append('/').append(seg).append('-').append(seg)
      .append('/').append(seg).append('/').append(seg).append("/article-")
      .append((r.nextDouble() * 9000 + 1000).toLong)
      .append(".html?ref=").append(seg).append("&s=")
    sb.append(HexFormat.of.formatHex(md5.get.digest(s"$i$seed".getBytes(UTF_8)), 0, 4))
      .toString
  }

  /** Most draws one call takes: the index table of [[draw]] holds two slots
    * per draw in one `Int` array, whose length is a power of two.
    */
  private final val MaxDraws = 1 << 29

  /** The distinct keys among `key(seed, 0 until n)`, in order of first
    * occurrence: a pure function of (n, seed). Repeated draws are dropped,
    * not redrawn, so there are at most n keys, and `draw(n, …)` is a prefix
    * of `draw(m, …)` for every m ≥ n.
    *
    * The draws are made in parallel on the JDK common pool, so `key` must be
    * pure and thread-safe, as the three key functions here are. Draw `i`
    * depends on nothing but (seed, i), so the result does not depend on the
    * pool's size. Duplicates are then dropped in one sequential pass in
    * index order, through an open-addressing table of key positions.
    *
    * @throws IllegalArgumentException if n is negative or above 536,870,912,
    *   before anything is allocated
    */
  def draw(n: Long, seed: Long, key: (Long, Long) => String): Array[String] = {
    require(n >= 0 && n <= MaxDraws, s"n = $n draws: need 0 ≤ n ≤ $MaxDraws")
    val keys = new Array[String](n.toInt)
    // the hash is cached in each String here, off the sequential pass
    java.util.Arrays.parallelSetAll[String](keys, i => { val k = key(seed, i); k.hashCode; k })
    // first occurrences move to keys(0 until w); a slot holds position + 1, or 0 when empty
    val slots = if (keys.length < 2) 2 else Integer.highestOneBit(2 * keys.length - 1) << 1
    val shift = Integer.numberOfLeadingZeros(slots) + 1
    val table = new Array[Int](slots)
    var w = 0
    var i = 0
    while (i < keys.length) {
      val k = keys(i)
      val h = k.hashCode
      var s = (h * 0x9E3779B9) >>> shift
      var fresh = true
      while (fresh && table(s) != 0) {
        val seen = keys(table(s) - 1)
        if (seen.hashCode == h && seen.equals(k)) fresh = false
        else s = (s + 1) & (slots - 1)
      }
      if (fresh) { keys(w) = k; w += 1; table(s) = w }
      i += 1
    }
    if (w == keys.length) keys else java.util.Arrays.copyOf(keys, w)
  }

  /** `draw(n, seed, key)` as a one-partition DataFrame with column "k", made
    * by a single task, so that Spark and the driver see one set in one order.
    * The draw inside that task still runs on every core.
    */
  private def frame(spark: SparkSession, n: Long, seed: Long, key: (Long, Long) => String): DataFrame =
    spark.range(0, 1, 1, 1).flatMap(_ => draw(n, seed, key).iterator)(Encoders.STRING).toDF("k")

  /** Email keys, host-reversed like the paper's dataset. */
  def emails(spark: SparkSession, n: Long, seed: Long = 7): DataFrame =
    frame(spark, n, seed, emailKey)

  /** Email subsets for the Appendix C distribution-change experiment:
    * A = gmail + yahoo accounts, B = everything else.
    */
  def emailsSplit(spark: SparkSession, n: Long, seed: Long = 7): (DataFrame, DataFrame) = {
    val all = emails(spark, n, seed)
    val isA = col("k").startsWith("com.gmail") || col("k").startsWith("com.yahoo")
    (all.filter(isA), all.filter(!isA))
  }

  /** Wikipedia-title-like keys. */
  def wiki(spark: SparkSession, n: Long, seed: Long = 11): DataFrame =
    frame(spark, n, seed, wikiKey)

  /** URL keys with long shared prefixes (avg ≈ 100 bytes). */
  def urls(spark: SparkSession, n: Long, seed: Long = 13): DataFrame =
    frame(spark, n, seed, urlKey)

  /** Named dataset accessor used by the bench suites. */
  def dataset(spark: SparkSession, name: String, n: Long): DataFrame = name match {
    case "email" => emails(spark, n)
    case "wiki"  => wiki(spark, n)
    case "url"   => urls(spark, n)
    case other   => throw new IllegalArgumentException(s"unknown dataset $other")
  }

  /** Collect a key DataFrame to byte arrays (driver-side workloads). */
  def collectKeys(df: DataFrame): Array[Array[Byte]] = {
    df.select(col("k")).as[String](Encoders.STRING).collect()
      .map(repro.core.Bytes.utf8)
  }
}
