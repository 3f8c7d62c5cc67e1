package repro.keys

import repro.SparkSpec
import repro.core.Bytes

class KeySynthSpec extends SparkSpec {

  private lazy val email = KeySynth.collectKeys(KeySynth.emails(spark, 3000))
  private lazy val wikiK = KeySynth.collectKeys(KeySynth.wiki(spark, 3000))
  private lazy val urlK  = KeySynth.collectKeys(KeySynth.urls(spark, 3000))

  private def same(a: Array[Array[Byte]], b: Array[Array[Byte]]): Boolean =
    a.length == b.length && a.indices.forall(i => java.util.Arrays.equals(a(i), b(i)))

  test("emails: non-empty, distinct, deterministic") {
    assert(email.nonEmpty)
    assert(email.map(Bytes.hex).distinct.length == email.length)
    val again = KeySynth.collectKeys(KeySynth.emails(spark, 3000))
    assert(same(email, again))
  }

  test("every dataset is one partition") {
    for (name <- Seq("email", "wiki", "url"))
      assert(KeySynth.dataset(spark, name, 500).rdd.getNumPartitions == 1, name)
  }

  test("emails: the DataFrame holds the driver draw, byte for byte and in order") {
    val driver = KeySynth.draw(3000, 5, KeySynth.emailKey).map(Bytes.utf8)
    assert(same(KeySynth.collectKeys(KeySynth.emails(spark, 3000, 5)), driver))
  }

  test("draw(n) is a prefix of draw(2n)") {
    for (key <- Seq[(Long, Long) => String](KeySynth.emailKey, KeySynth.wikiKey, KeySynth.urlKey)) {
      val short = KeySynth.draw(20000, 3, key)
      val long = KeySynth.draw(40000, 3, key)
      assert(short.length < long.length && long.take(short.length).sameElements(short))
    }
  }

  /** Reference for [[KeySynth.draw]]: one thread, first occurrences kept through a HashSet. */
  private def drawReference(n: Long, seed: Long, key: (Long, Long) => String): Array[String] = {
    val seen = new java.util.HashSet[String]
    val out = Array.newBuilder[String]
    var i = 0L
    while (i < n) {
      val k = key(seed, i)
      if (seen.add(k)) out += k
      i += 1
    }
    out.result()
  }

  private def assertDrawMatchesReference(n: Long, seed: Long, key: (Long, Long) => String): Unit = {
    val got = KeySynth.draw(n, seed, key)
    val want = drawReference(n, seed, key)
    val firstDiff = got.indices.find(i => i >= want.length || got(i) != want(i))
    assert(got.length == want.length && firstDiff.isEmpty,
      s"n=$n seed=$seed: ${got.length} keys against ${want.length}, first difference at $firstDiff")
  }

  test("draw equals the sequential first-occurrence loop on every dataset at two seeds") {
    for (key <- Seq[(Long, Long) => String](KeySynth.emailKey, KeySynth.wikiKey, KeySynth.urlKey);
         seed <- Seq(3L, 19L))
      assertDrawMatchesReference(30000, seed, key)
  }

  test("draw equals the sequential loop under heavy duplicates, and at n = 0 and 1") {
    val mod97 = (_: Long, i: Long) => (i % 97).toString
    assert(KeySynth.draw(10000, 0, mod97).length == 97)
    assertDrawMatchesReference(10000, 0, mod97)
    for (n <- Seq(0L, 1L); key <- Seq[(Long, Long) => String](KeySynth.wikiKey, mod97))
      assertDrawMatchesReference(n, 5, key)
  }

  test("draw tells keys apart by equals when all their hash codes are equal") {
    // "Aa" and "BB" have one String.hashCode, so every same-length string of them does too
    val blocks = 10
    val collide = (seed: Long, i: Long) => {
      val pick = (i * 37 + seed) % (1 << blocks)
      (0 until blocks).map(b => if ((pick >> b & 1) == 0) "Aa" else "BB").mkString
    }
    val keys = KeySynth.draw(3000, 1, collide)
    assert(keys.map(_.hashCode).distinct.length == 1)
    assert(keys.length == 1 << blocks)
    assertDrawMatchesReference(3000, 1, collide)
  }

  test("draw rejects a negative or oversized n before allocating") {
    for (n <- Seq(-1L, Int.MaxValue.toLong + 1)) {
      val e = intercept[IllegalArgumentException](KeySynth.draw(n, 1, KeySynth.emailKey))
      assert(e.getMessage.contains(s"n = $n"), e.getMessage)
    }
  }

  test("pinned SHA-256 of the first 1,000 keys of each dataset at its default seed") {
    // one digest for every core count: run under SPARK_MASTER=local[1], local[4], local[16]
    val pinned = Map(
      "email" -> "e338f2ef410e0341d26e69d07010e41d5298b6e4a4d141d5e49473eb87e36a7f",
      "wiki"  -> "71d466f72db47e77cff662b890194b0a55e39227501949f718a51ffffe777d64",
      "url"   -> "ed1e18e2c9e0dd45b70ee8766d9caa854a5c10f5058a15c13851945d986e4215",
    )
    for ((name, digest) <- pinned) {
      val sha = java.security.MessageDigest.getInstance("SHA-256")
      val keys = KeySynth.collectKeys(KeySynth.dataset(spark, name, 2000)).take(1000)
      assert(keys.length == 1000, name)
      keys.foreach { k => sha.update(k); sha.update('\n'.toByte) }
      assert(Bytes.hex(sha.digest()) == digest, name)
    }
  }

  test("emails: host-reversed shape with @") {
    assert(email.forall(k => Bytes.str(k).contains("@")))
    assert(email.count(k => Bytes.str(k).startsWith("com.")) > email.length / 2)
  }

  test("emails: average length in the paper's ballpark (22 ± 8 bytes)") {
    val avg = email.map(_.length).sum.toDouble / email.length
    assert(avg > 14 && avg < 30, s"avg=$avg")
  }

  test("emails: skewed domains (gmail dominates)") {
    val gmail = email.count(k => Bytes.str(k).startsWith("com.gmail"))
    assert(gmail > email.length / 10, s"gmail=$gmail of ${email.length}")
  }

  test("emails: printable ASCII, NUL-free") {
    assert(email.forall(_.forall(b => b >= 33 && b < 127)))
  }

  test("wiki: shape and length") {
    assert(wikiK.forall(k => Bytes.str(k).contains("_")))
    val avg = wikiK.map(_.length).sum.toDouble / wikiK.length
    assert(avg > 10 && avg < 35, s"avg=$avg")
    assert(wikiK.forall(_.forall(b => b >= 33 && b < 127)))
  }

  test("wiki: first letter capitalized") {
    assert(wikiK.forall(k => Character.isUpperCase(Bytes.str(k).charAt(0))))
  }

  test("urls: long keys with long shared prefixes") {
    val avg = urlK.map(_.length).sum.toDouble / urlK.length
    assert(avg > 70 && avg < 140, s"avg=$avg")
    assert(urlK.forall(k => Bytes.str(k).startsWith("http://")))
    assert(urlK.forall(_.forall(b => b >= 33 && b < 127)))
  }

  test("urls: shared-prefix mass exceeds email's (dataset ordering the paper relies on)") {
    def avgLcp(keys: Array[Array[Byte]]): Double = {
      val sorted = keys.sortWith(Bytes.compare(_, _) < 0)
      (1 until sorted.length).map(i => Bytes.lcp(sorted(i - 1), sorted(i))).sum.toDouble /
        (sorted.length - 1)
    }
    assert(avgLcp(urlK) > avgLcp(email))
  }

  test("emailsSplit partitions into gmail+yahoo vs the rest") {
    val (a, b) = KeySynth.emailsSplit(spark, 2000)
    val ka = KeySynth.collectKeys(a); val kb = KeySynth.collectKeys(b)
    assert(ka.nonEmpty && kb.nonEmpty)
    assert(ka.forall { k =>
      val s = Bytes.str(k); s.startsWith("com.gmail") || s.startsWith("com.yahoo")
    })
    assert(kb.forall { k =>
      val s = Bytes.str(k); !s.startsWith("com.gmail") && !s.startsWith("com.yahoo")
    })
  }

  test("dataset() dispatches and rejects unknown names") {
    assert(KeySynth.dataset(spark, "email", 100).columns.sameElements(Array("k")))
    intercept[IllegalArgumentException](KeySynth.dataset(spark, "nope", 1))
  }

  test("Zipf: rank 0 is the hottest and the distribution is skewed") {
    val z = new Zipf(1000, seed = 5)
    val draws = z.draw(20000)
    assert(draws.forall(r => r >= 0 && r < 1000))
    val counts = draws.groupBy(identity).view.mapValues(_.length).toMap
    assert(counts(0) > counts.getOrElse(500, 0))
    assert(counts(0) > draws.length / 50) // hot item gets ≥ 2%
  }

  test("Zipf: deterministic in seed") {
    assert(new Zipf(100, seed = 9).draw(100).toSeq == new Zipf(100, seed = 9).draw(100).toSeq)
  }

  test("KeyShuffle.permutation is a permutation") {
    val p = KeyShuffle.permutation(1000)
    assert(p.sorted.toSeq == (0 until 1000))
  }
}
