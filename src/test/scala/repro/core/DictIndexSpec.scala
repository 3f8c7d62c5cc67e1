package repro.core

import repro.SparkSpec
import repro.art.ArtDictIndex
import repro.keys.KeySynth

/** All dictionary structures must agree with the binary-search reference on
  * the floor query, for every scheme's boundary shape.
  */
class DictIndexSpec extends SparkSpec {

  private val rnd = new scala.util.Random(99)

  private def randBoundaries(n: Int, maxLen: Int): Array[Array[Byte]] = {
    val extras = Seq.fill(n)(Array.fill(1 + rnd.nextInt(maxLen))(rnd.nextInt(256).toByte))
    Axis.buildIntervals(extras).boundaries
  }

  private def checkAgainstReference(boundaries: Array[Array[Byte]], idx: DictIndex,
                                    probes: Int, maxKeyLen: Int): Unit = {
    val ref = new SortedArrayIndex(boundaries)
    for (_ <- 0 until probes) {
      val key = Array.fill(1 + rnd.nextInt(maxKeyLen))(rnd.nextInt(256).toByte)
      val off = rnd.nextInt(key.length)
      assert(idx.lookup(key, off) == ref.lookup(key, off),
        s"${idx.getClass.getSimpleName} disagrees on key=${Bytes.hex(key)} off=$off")
    }
  }

  /** Compares `idx` with binary search at every offset of every key. */
  private def checkEveryOffset(boundaries: Array[Array[Byte]], idx: DictIndex,
                               keys: Iterable[Array[Byte]]): Unit = {
    val ref = new SortedArrayIndex(boundaries)
    for (key <- keys; off <- key.indices) {
      val (got, want) = (idx.lookup(key, off), ref.lookup(key, off))
      if (got != want) fail(s"${idx.getClass.getSimpleName} gives $got, not $want, on key=${Bytes.hex(key)} off=$off")
    }
  }

  private def bytes(xs: Int*): Array[Byte] = xs.map(_.toByte).toArray

  /** Node count of a trie that stores one node per distinct boundary prefix. */
  private def prefixCount(boundaries: Array[Array[Byte]]): Int =
    boundaries.iterator.flatMap(b => (0 to b.length).map(i => Bytes.hex(b.take(i)))).toSet.size

  private lazy val urlKeys = KeySynth.collectKeys(KeySynth.urls(spark, 2000))
  private lazy val emailKeys = KeySynth.collectKeys(KeySynth.emails(spark, 3000))

  private def gramBoundaries(n: Int, keys: Array[Array[Byte]]): Array[Array[Byte]] =
    Axis.buildIntervals(SymbolSelect.extraBoundaries(Scheme.NGrams(n, 1 << 16), keys.take(500)))
      .boundaries

  test("SingleCharIndex matches binary search on the 256 singles") {
    val iv = Axis.buildIntervals(Nil)
    checkAgainstReference(iv.boundaries, new SingleCharIndex, 2000, 8)
  }

  test("DoubleCharIndex matches binary search on the 65792 boundary set") {
    val iv = Axis.buildIntervals(SymbolSelect.extraBoundaries(Scheme.DoubleChar, Array.empty))
    checkAgainstReference(iv.boundaries, new DoubleCharIndex, 5000, 8)
  }

  test("BitmapTrie(3) matches binary search on random 3-gram boundaries") {
    val b = randBoundaries(400, 3)
    checkAgainstReference(b, BitmapTrie(b, 3), 5000, 9)
  }

  test("BitmapTrie(4) matches binary search on random 4-gram boundaries") {
    val b = randBoundaries(800, 4)
    checkAgainstReference(b, BitmapTrie(b, 4), 5000, 10)
  }

  test("BitmapTrie handles the minimal 256-single-byte set") {
    val b = Axis.buildIntervals(Nil).boundaries
    checkAgainstReference(b, BitmapTrie(b, 3), 2000, 6)
    checkEveryOffset(b, BitmapTrie(b, 3), (0 until 256).map(c => bytes(c, 0x00, 0xff)))
  }

  test("BitmapTrie terminal + descendants: prefix boundaries coexist") {
    val extras = Seq("a", "ab", "abc", "abd", "ac", "b", "ba").map(Bytes.of)
    val b = Axis.buildIntervals(extras).boundaries
    checkAgainstReference(b, BitmapTrie(b, 3), 3000, 6)
  }

  for ((data, keys) <- Seq("url" -> (() => urlKeys), "email" -> (() => emailKeys)); n <- Seq(3, 4)) {
    test(s"BitmapTrie($n) matches binary search at every offset of $data keys (real $n-Grams dictionary)") {
      val b = gramBoundaries(n, keys())
      assert(b.length > 1000, s"only ${b.length} boundaries")
      checkEveryOffset(b, BitmapTrie(b, n), keys())
    }
  }

  test("BitmapTrie matches binary search at every offset on edge-case boundaries") {
    val extras = Seq(
      bytes(0x00), bytes(0x00, 0x00), bytes(0x00, 0xff, 0x00), bytes(0xff, 0xff), bytes(0xff, 0x00, 0xff),
      bytes(0x61), bytes(0x61, 0x62), bytes(0x61, 0x62, 0x63), // the prefix chain a / ab / abc
      bytes(0x78, 0x79),                                         // x: only child y, childless
      bytes(0x70, 0x71, 0x72),                                   // p → q → r, one child each
    ) ++ (0 until 256).map(c => bytes(0x6d, c))                  // m: all 256 labels
    val b = Axis.buildIntervals(extras).boundaries
    // every boundary, each of its prefixes (keys that end mid-path) and each
    // of its extensions by a low, middle or high byte, plus random keys
    val probes = b.toSeq.flatMap { x =>
      (1 to x.length).map(x.take) ++ Seq(0x00, 0x7f, 0xff).map(c => x :+ c.toByte)
    } ++ Seq.fill(3000)(Array.fill(1 + rnd.nextInt(5))(rnd.nextInt(256).toByte))
    // at depth 3 the nodes at depth 2 are last-level nodes; at 4 every node is an upper one
    for (maxDepth <- Seq(3, 4)) {
      val trie = BitmapTrie(b, maxDepth)
      checkEveryOffset(b, trie, probes)
      assert(trie.nodeCount == prefixCount(b))
    }
  }

  test("BitmapTrie.memoryBytes is the size of the arrays it holds") {
    for ((n, keys) <- Seq(3 -> urlKeys, 4 -> emailKeys)) {
      val trie = BitmapTrie(gramBoundaries(n, keys), n)
      val arrays = classOf[BitmapTrie].getDeclaredFields.toSeq.flatMap { f =>
        f.setAccessible(true)
        f.get(trie) match {
          case a: Array[Long] => Some(8L * a.length)
          case a: Array[Int]  => Some(4L * a.length)
          case a: Array[Byte] => Some(1L * a.length)
          case _              => None
        }
      }
      assert(arrays.size >= 2)
      assert(trie.memoryBytes == arrays.sum, s"$n-Grams")
    }
  }

  test("BitmapTrie.nodeCount counts one node per distinct boundary prefix") {
    for (b <- Seq(randBoundaries(500, 4), gramBoundaries(3, urlKeys), gramBoundaries(4, emailKeys)))
      assert(BitmapTrie(b, 4).nodeCount == prefixCount(b))
  }

  test("pinned SHA-256 of the encoded keys and the trie lookups for every n-Grams dictionary") {
    // bench-sized draws at the datasets' default seeds, sampled as BenchBase.sample does
    def draw(n: Long, seed: Long, key: (Long, Long) => String): Array[Array[Byte]] =
      KeySynth.draw(n, seed, key).map(Bytes.utf8)
    val keys = Map(
      "email" -> draw(60000, 7, KeySynth.emailKey),
      "url"   -> draw(30000, 13, KeySynth.urlKey),
    )
    // (encodeTerminated digest, lookup digest)
    val pinned = Seq(
      (Scheme.NGrams(3, 65536), "email",
       "5b6ed202e5ea3339f4d0c58f46fc8c2a511b0a126a2acb61e27df36450e19f8d",
       "f5073c8b25333e0b9622f19ee5b7126591071571adeb59bffbb94b079062211e"),
      (Scheme.NGrams(3, 65536), "url",
       "61caaa44b6add98ee327cd0ba24bdcf54913ce048790d2f5ebc690ade1926e58",
       "d117ebf4be9f51401d8e68a7d14a3ea373322cb917a05f586214b7fed3079aa9"),
      (Scheme.NGrams(3, 4096), "email",
       "4eece36d37d6d0d91191191ec2cb908e2694c74e951a02337ad644404137443f",
       "eacd8195bc2b17ad711e1da8c573136f1447d019a25f4e57db44f89565b804a3"),
      (Scheme.NGrams(3, 4096), "url",
       "fd2047f6179b77c7ef8782b76e0fec803afa2271b934607ef5eb3db07a779dac",
       "f8529791d37a939b3a653b7a9a2a353c8ee4251ebb4cf5384d368cd970348755"),
      (Scheme.NGrams(4, 65536), "email",
       "8b64e6249d2978b5de6ca4e4feba313b48656a90ee36d4b7c23407cd2bb8751b",
       "f6b526d9a4e941bf29ae2027188d60656cf45ef453780c632556b82082b10405"),
      (Scheme.NGrams(4, 65536), "url",
       "ee52334af60ac706b380e8cff72a66f90073ba8dca5139d70a8679d32a92944b",
       "5423bad486d4f5b6b06388776dd818af42395e6a6e97ba3663ab53eba761d8d1"),
    )
    val int = java.nio.ByteBuffer.allocate(4)
    val wrong = for ((scheme, ds, encDigest, lookupDigest) <- pinned) yield {
      val ks = keys(ds)
      val hope = Hope.build(ks.take(math.max(1000, ks.length / 100)), scheme)
      val trie = hope.index.asInstanceOf[BitmapTrie]
      // each encoded key enters behind its 4-byte bit length; each lookup as 4 bytes
      val enc = java.security.MessageDigest.getInstance("SHA-256")
      val look = java.security.MessageDigest.getInstance("SHA-256")
      for (k <- ks) {
        val e = hope.encodeTerminated(k)
        enc.update(int.clear().putInt(e.bitLen).array())
        enc.update(e.bytes)
        for (off <- k.indices) look.update(int.clear().putInt(trie.lookup(k, off)).array())
      }
      val got = (Bytes.hex(enc.digest()), Bytes.hex(look.digest()))
      Option.when(got != ((encDigest, lookupDigest)))(s"${scheme.name} on $ds: $got")
    }
    assert(wrong.flatten.isEmpty, wrong.flatten.mkString("\n"))
  }

  test("ArtDictIndex: a key below every boundary fails loudly, naming key and offset") {
    val idx = ArtDictIndex(Array(Bytes.of("m"), Bytes.of("n")))
    val e = intercept[IllegalStateException](idx.lookup(Bytes.of("xa"), 1))
    assert(e.getMessage.contains("7861") && e.getMessage.contains("offset 1"), e.getMessage)
  }

  test("ArtDictIndex matches binary search on variable-length boundaries") {
    val b = randBoundaries(500, 7)
    checkAgainstReference(b, ArtDictIndex(b), 5000, 12)
  }

  test("ArtDictIndex on ALM-like ASCII boundaries with long symbols") {
    val words = Seq("com.gmail@", "com.yahoo@", "org.", "net.", "mail", "ing", "ion", "a", "zz")
    val b = Axis.buildIntervals(words.map(Bytes.of)).boundaries
    checkAgainstReference(b, ArtDictIndex(b), 4000, 16)
  }

  test("lookup at non-zero offsets avoids suffix allocation but stays exact") {
    val b = randBoundaries(300, 3)
    val trie = BitmapTrie(b, 3)
    val ref = new SortedArrayIndex(b)
    val key = Bytes.of("com.gmail@foobar123")
    for (off <- 0 until key.length)
      assert(trie.lookup(key, off) == ref.lookup(key, off), s"off=$off")
  }

  test("memory accounting: bitmap-trie is within an order of magnitude of entries") {
    val b = randBoundaries(1000, 3)
    val trie = BitmapTrie(b, 3)
    assert(trie.memoryBytes > 0 && trie.memoryBytes < 64L * 48 * b.length)
  }

  test("bitmap-trie node count bounded by total boundary bytes") {
    val b = randBoundaries(500, 4)
    assert(BitmapTrie(b, 4).nodeCount <= b.map(_.length).sum + 1)
  }
}
