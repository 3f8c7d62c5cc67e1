package repro.keys

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Synthetic stand-ins for the paper's three string-key datasets (§6),
  * generated with the DataFrame API so they scale. See DESIGN.md §3 for the
  * substitution rationale.
  *
  * A key set is deterministic in (n, seed, `defaultParallelism`), not in
  * (n, seed) alone: Spark seeds `rand(seed)` per partition with seed plus the
  * partition index, and `spark.range(n)` splits by `defaultParallelism`. So
  * the same (n, seed) gives a different set under `local[1]` and `local[4]`
  * (20,000 emails: 19,968 and 19,978 distinct keys). Every number measured
  * on these keys holds for one core count.
  *
  *  - emails: host-reversed ("com.gmail@first.last123"), Zipf-skewed domains,
  *    avg ≈ 22 bytes — heavy shared prefixes within popular domains.
  *  - wiki: capitalized word sequences joined by '_', Zipf word choice,
  *    avg ≈ 21 bytes — natural-language letter statistics.
  *  - urls: "http://www.<domain>/<seg>/<seg>?id=<n>" with Zipf domains,
  *    avg ≈ 100 bytes — very long shared prefixes.
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

  /** Zipf-ish index over [0, n): floor(n * u^k) concentrates small indices. */
  private def skewIdx(seedCol: org.apache.spark.sql.Column, n: Int, k: Double) =
    least(lit(n - 1), floor(pow(seedCol, k) * n)).cast("int")

  private def pick(words: Array[String], idx: org.apache.spark.sql.Column) =
    element_at(array(words.map(lit): _*), idx + 1)

  /** Email keys, host-reversed like the paper's dataset. */
  def emails(spark: SparkSession, n: Long, seed: Long = 7): DataFrame = {
    spark.range(n).select(
      concat(
        pick(domains, skewIdx(rand(seed), domains.length, 2.5)),
        lit("@"),
        pick(firstNames, skewIdx(rand(seed + 1), firstNames.length, 1.5)),
        lit("."),
        pick(lastNames, skewIdx(rand(seed + 2), lastNames.length, 1.5)),
        when(rand(seed + 3) < 0.6, (rand(seed + 4) * 1000).cast("int").cast("string"))
          .otherwise(lit("")),
      ) as "k"
    ).distinct()
  }

  /** Email subsets for the Appendix C distribution-change experiment:
    * A = gmail + yahoo accounts, B = everything else.
    */
  def emailsSplit(spark: SparkSession, n: Long, seed: Long = 7): (DataFrame, DataFrame) = {
    val all = emails(spark, n, seed)
    val isA = col("k").startsWith("com.gmail") || col("k").startsWith("com.yahoo")
    (all.filter(isA), all.filter(!isA))
  }

  /** Wikipedia-title-like keys. */
  def wiki(spark: SparkSession, n: Long, seed: Long = 11): DataFrame = {
    def word(s: Long, cap: Boolean) = {
      val w = pick(wikiWords, skewIdx(rand(s), wikiWords.length, 1.8))
      if (cap) concat(upper(substring(w, 1, 1)), substring(w, 2, 100)) else w
    }
    spark.range(n).select(
      concat(
        word(seed, cap = true),
        lit("_"), word(seed + 1, cap = false),
        when(rand(seed + 2) < 0.5, concat(lit("_"), word(seed + 3, cap = false)))
          .otherwise(lit("")),
        when(rand(seed + 4) < 0.15,
          concat(lit("_("), word(seed + 5, cap = false), lit(")"))).otherwise(lit("")),
      ) as "k"
    ).distinct()
  }

  /** URL keys with long shared prefixes (avg ≈ 100 bytes). */
  def urls(spark: SparkSession, n: Long, seed: Long = 13): DataFrame = {
    def seg(s: Long) = pick(pathWords, skewIdx(rand(s), pathWords.length, 1.3))
    spark.range(n).select(
      concat(
        lit("http://"),
        pick(urlHosts, skewIdx(rand(seed), urlHosts.length, 2.0)),
        lit("/"), seg(seed + 1), lit("/"), seg(seed + 2), lit("-"), seg(seed + 3),
        lit("/"), seg(seed + 4), lit("/"), seg(seed + 5), lit("/article-"),
        (rand(seed + 7) * 9000 + 1000).cast("long").cast("string"),
        lit(".html?ref="), seg(seed + 8), lit("&s="),
        substring(md5(concat(col("id").cast("string"), lit(seed.toString))), 1, 8),
      ) as "k"
    ).distinct()
  }

  /** Named dataset accessor used by the bench suites. */
  def dataset(spark: SparkSession, name: String, n: Long): DataFrame = name match {
    case "email" => emails(spark, n)
    case "wiki"  => wiki(spark, n)
    case "url"   => urls(spark, n)
    case other   => throw new IllegalArgumentException(s"unknown dataset $other")
  }

  /** Collect a key DataFrame to byte arrays (driver-side workloads). */
  def collectKeys(df: DataFrame): Array[Array[Byte]] = {
    import org.apache.spark.sql.Encoders
    df.select(col("k")).as[String](Encoders.STRING).collect()
      .map(repro.core.Bytes.utf8)
  }
}
