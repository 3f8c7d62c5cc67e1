package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.keys.KeySynth

/** Spark-side behaviour: sampling key bytes, the `hope_encode` expression,
  * and — via the DuckDB oracle — that ordering/range/group-by queries over
  * the encoded binary column reproduce the raw-string answers.
  */
class HopeSparkSpec extends SparkSpec {

  private lazy val emailDf = KeySynth.emails(spark, 2000).cache()
  private lazy val hope: BuiltHope =
    HopeSpark.build(emailDf, "k", Scheme.NGrams(3, 1 << 10), fraction = 0.5)

  test("sampleKeys returns roughly the requested fraction") {
    val s = HopeSpark.sampleKeys(emailDf, "k", 0.2, seed = 3)
    val n = emailDf.count()
    assert(s.length > n * 0.05 && s.length < n * 0.5, s"${s.length} of $n")
  }

  test("non-Latin-1 keys: sampled as UTF-8 bytes, encoded order equals DuckDB ORDER BY") {
    import spark.implicits._
    val raw = KeySynth.collectKeys(emailDf).take(300).map(Bytes.str) ++ Seq(
      "中", "文", "é", "e", "中文", "文中", "café", "cafe", "cafë", "caf",
      "com.gmail@中", "com.gmail@文", "com.gmail@é", "zé", "z", "ÿ", "éa")
    val df = raw.toSeq.toDF("k")
    val sampled = HopeSpark.sampleKeys(df, "k", 1.0).map(Bytes.hex)
    val distinct = sampled.toSet
    assert(distinct.size == raw.length, "sampled arrays are not distinct")
    assert(distinct == raw.map(k => Bytes.hex(Bytes.utf8(k))).toSet)

    for (scheme <- Seq[Scheme](Scheme.SingleChar, Scheme.NGrams(3, 1 << 10))) {
      val h = HopeSpark.build(df, "k", scheme, fraction = 1.0)
      import org.apache.spark.sql.expressions.Window
      val ranked = HopeSpark.encodeColumn(df, "k", h)
        .withColumn("rk", row_number().over(Window.orderBy(col("k_enc"))))
        .select(col("k"), col("rk").cast("string").as("rk"))
      Oracle.assertEquivalent(ranked,
        "select k, cast(row_number() over (order by k) as varchar) as rk from t",
        "t" -> df)
    }
  }

  test("a key column with nulls: the build skips them and hope_encode maps them to null") {
    import spark.implicits._
    val raw = Seq[String]("com.gmail@ann", null, "com.yahoo@bob", null, "org.acm@cy")
    val df = raw.toDF("k")
    assert(HopeSpark.sampleKeys(df, "k", 1.0).map(Bytes.str).toSeq == raw.filter(_ != null))
    val h = HopeSpark.build(df, "k", Scheme.NGrams(3, 512), fraction = 1.0)
    val rows = HopeSpark.encodeColumn(df, "k", h).collect()
    assert(rows.length == raw.length && rows.count(_.isNullAt(0)) == 2)
    rows.foreach { r =>
      if (r.isNullAt(0)) assert(r.isNullAt(1))
      else assert(java.util.Arrays.equals(r.getAs[Array[Byte]](1),
        h.encodeTerminated(Bytes.utf8(r.getString(0))).bytes), r.getString(0))
    }
  }

  test("hope_encode rejects a non-string column and a non-binary collation at analysis") {
    import org.apache.spark.sql.AnalysisException
    val ints = spark.range(5).toDF("k")
    val notString = intercept[AnalysisException](HopeSpark.encodeColumn(ints, "k", hope))
    assert(notString.getMessage.contains("hope_encode"), notString.getMessage)
    val fn = HopeSpark.registerSql(spark, "typed", hope)
    ints.createOrReplaceTempView("typed_ints")
    val inSql = intercept[AnalysisException](spark.sql(s"select $fn(k) from typed_ints"))
    assert(inSql.getMessage.contains("hope_encode"), inSql.getMessage)
    for (collation <- Seq("UTF8_LCASE", "UNICODE", "UNICODE_CI", "UTF8_BINARY_RTRIM")) {
      val df = emailDf.select(collate(col("k"), collation).as("k"))
      val e = intercept[AnalysisException](HopeSpark.encodeColumn(df, "k", hope))
      assert(e.getMessage.contains("hope_encode") && e.getMessage.contains(collation), e.getMessage)
    }
    // an explicit UTF8_BINARY collation is the default one: same bytes
    val plain = HopeSpark.encodeColumn(emailDf, "k", hope).select(hex(col("k_enc"))).collect()
    val binary = HopeSpark.encodeColumn(emailDf.select(collate(col("k"), "UTF8_BINARY").as("k")), "k", hope)
      .select(hex(col("k_enc"))).collect()
    assert(binary.toSeq == plain.toSeq)
  }

  test("encodeColumn leaves the session's function registry unchanged") {
    val registry = spark.sessionState.functionRegistry
    val before = registry.listFunction().size
    for (scheme <- Seq[Scheme](Scheme.SingleChar, Scheme.DoubleChar, Scheme.NGrams(3, 512))) {
      val h = HopeSpark.build(emailDf, "k", scheme, fraction = 0.2)
      assert(HopeSpark.encodeColumn(emailDf, "k", h).select("k_enc").limit(1).collect().length == 1)
    }
    val after = registry.listFunction().size
    assert(after == before)
  }

  test("hope_encode expression registered in SQL works end-to-end") {
    val fn = HopeSpark.registerSql(spark, "t1", hope)
    emailDf.createOrReplaceTempView("emails_sql")
    val out = spark.sql(s"select k, $fn(k) as e from emails_sql limit 10").collect()
    out.foreach { r =>
      val k = r.getString(0)
      val e = r.getAs[Array[Byte]](1)
      assert(java.util.Arrays.equals(e, hope.encodeTerminated(Bytes.of(k)).bytes))
    }
  }

  test("encodeColumn: sorting by encoded binary equals DuckDB ORDER BY raw key") {
    val enc = HopeSpark.encodeColumn(emailDf, "k", hope)
    // rank by encoded order must equal rank by raw order
    import org.apache.spark.sql.expressions.Window
    val sparkRanked = enc
      .withColumn("rk", row_number().over(Window.orderBy(col("k_enc"))))
      .select(col("k"), col("rk").cast("string").as("rk"))
    Oracle.assertEquivalent(
      sparkRanked,
      "select k, cast(row_number() over (order by k) as varchar) as rk from t",
      "t" -> emailDf)
  }

  test("range count on encoded domain equals DuckDB range count on raw keys") {
    val enc = HopeSpark.encodeColumn(emailDf, "k", hope).cache()
    for (lo <- Seq("com.gmail", "com.yahoo@a", "org")) {
      val hi = lo.init + (lo.last + 1).toChar
      val loB = lit(hope.encodeTerminated(Bytes.of(lo)).bytes)
      val hiB = lit(hope.encodeTerminated(Bytes.of(hi)).bytes)
      val got = enc.filter(col("k_enc") >= loB && col("k_enc") < hiB)
        .agg(count(lit(1)).cast("string").as("n"))
      Oracle.assertEquivalent(got,
        s"select cast(count(*) as varchar) as n from t where k >= '$lo' and k < '$hi'",
        "t" -> emailDf)
    }
  }

  test("group-by on encoded key preserves cardinalities (injective encoding)") {
    val enc = HopeSpark.encodeColumn(emailDf, "k", hope)
    val got = enc.agg(
      countDistinct(col("k_enc")).cast("string").as("enc_groups"),
      countDistinct(col("k")).cast("string").as("raw_groups"))
    val r = got.collect().head
    assert(r.getString(0) == r.getString(1))
  }

  test("min/max keys by encoded order match DuckDB min/max") {
    val enc = HopeSpark.encodeColumn(emailDf, "k", hope)
    val got = enc.orderBy(col("k_enc")).select("k").limit(1)
      .union(enc.orderBy(col("k_enc").desc).select("k").limit(1))
    Oracle.assertEquivalent(got,
      "select k from ((select k from t order by k limit 1) union all " +
        "(select k from t order by k desc limit 1))",
      "t" -> emailDf)
  }

  test("encodeColumn under every scheme keeps join-on-key results exact") {
    // join emails to itself on the encoded key: must match raw-key self-join
    for (scheme <- Seq[Scheme](Scheme.SingleChar, Scheme.DoubleChar, Scheme.AlmImproved(512))) {
      val h = HopeSpark.build(emailDf, "k", scheme, fraction = 0.3)
      val enc = HopeSpark.encodeColumn(emailDf, "k", h)
      val joined = enc.as("a").join(enc.as("b"), "k_enc")
        .agg(count(lit(1)).cast("string").as("n"))
      Oracle.assertEquivalent(joined,
        "select cast(count(*) as varchar) as n from t a join t b on a.k = b.k",
        "t" -> emailDf)
    }
  }

  test("per-partition mapPartitions encoding matches driver-side encoding") {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(hope)
    val viaPartitions = emailDf.select("k").as[String]
      .repartition(4)
      .mapPartitions { it =>
        val h = bc.value
        it.map(k => Bytes.hex(h.encodeTerminated(Bytes.of(k)).bytes))
      }.collect().sorted
    val viaDriver = KeySynth.collectKeys(emailDf)
      .map(k => Bytes.hex(hope.encodeTerminated(k).bytes)).sorted
    assert(viaPartitions.toSeq == viaDriver.toSeq)
  }

  test("BuiltHope survives Spark broadcast serialization for every scheme") {
    for (scheme <- Seq[Scheme](Scheme.SingleChar, Scheme.DoubleChar,
      Scheme.NGrams(3, 512), Scheme.NGrams(4, 512), Scheme.Alm(512, 8),
      Scheme.AlmImproved(512))) {
      val h = HopeSpark.build(emailDf, "k", scheme, fraction = 0.2)
      val bc = spark.sparkContext.broadcast(h)
      import spark.implicits._
      val n = emailDf.select("k").as[String].repartition(3)
        .mapPartitions { it => val hh = bc.value; it.map(k => hh.encode(Bytes.of(k)).bitLen.toLong) }
        .reduce(_ + _)
      assert(n > 0, scheme.name)
    }
  }
}
