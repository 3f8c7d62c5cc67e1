package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{BuiltHope, Bytes, Hope, Scheme}
import repro.surf.Surf

/** End-to-end: every (tree × scheme) pair must answer point and range
  * queries over HOPE-encoded keys exactly as a TreeMap over raw keys —
  * the order-preserving guarantee lifted to the integrated stack (§5).
  */
class IntegrationSpec extends AnyFunSuite {

  private val rnd = new scala.util.Random(2020)

  private val keys: Array[Array[Byte]] = {
    val domains = Array("com.gmail@", "com.yahoo@", "com.outlook@", "org.mail@")
    Array.fill(4000) {
      Bytes.of(domains(rnd.nextInt(domains.length)) +
        Array.fill(3 + rnd.nextInt(9))(('a' + rnd.nextInt(26)).toChar).mkString +
        rnd.nextInt(1000))
    }.distinctBy(Bytes.hex)
  }

  private val schemes: Seq[(String, Option[Scheme])] = Seq(
    "Uncompressed" -> None,
    "Single-Char" -> Some(Scheme.SingleChar),
    "Double-Char" -> Some(Scheme.DoubleChar),
    "3-Grams" -> Some(Scheme.NGrams(3, 1 << 10)),
    "4-Grams" -> Some(Scheme.NGrams(4, 1 << 10)),
    "ALM" -> Some(Scheme.Alm(1 << 9, 8)),
    "ALM-Improved" -> Some(Scheme.AlmImproved(1 << 9)),
  )

  private val hopes: Map[String, Option[BuiltHope]] =
    schemes.toMap.map { case (n, s) => n -> s.map(Hope.build(keys.take(400), _)) }

  /** The dictionary the `Harness` runs below encode with: built on the first
    * 256 keys.
    */
  private def harnessHope(s: Scheme): Option[BuiltHope] = Some(Hope.build(keys.take(256), s))

  private def reference = {
    val m = new java.util.TreeMap[Array[Byte], Long](
      (a: Array[Byte], b: Array[Byte]) => Bytes.compare(a, b))
    keys.zipWithIndex.foreach { case (k, i) => m.put(k, i.toLong) }
    m
  }

  for (treeName <- KVTree.names; (schemeName, _) <- schemes) {
    test(s"$treeName + $schemeName: point and range queries match the raw-key reference") {
      val hope = hopes(schemeName)
      val enc = Harness.keyCodec(hope)
      val tree = KVTree.create(treeName)
      keys.zipWithIndex.foreach { case (k, i) => tree.insert(enc(k), i.toLong) }
      val ref = reference

      // point: every present key found with its value, misses miss
      keys.take(800).zipWithIndex.foreach { case (k, i) =>
        assert(tree.get(enc(k)) == i.toLong, s"present ${Bytes.str(k)}")
      }
      for (_ <- 0 until 300) {
        val probe = Bytes.of("com.gmail@" + rnd.nextInt(100000) + "#miss")
        val expect = if (ref.containsKey(probe)) ref.get(probe) else -1L
        assert(tree.get(enc(probe)) == expect)
      }

      // range: scan counts from random starts match the reference ordering
      import scala.jdk.CollectionConverters._
      for (_ <- 0 until 60) {
        val start = keys(rnd.nextInt(keys.length))
        val got = tree.scan(enc(start), 25)
        val want = ref.tailMap(start, true).keySet().iterator().asScala.take(25).size
        assert(got == want, s"scan from ${Bytes.str(start)}: got $got want $want")
      }
    }
  }

  for ((schemeName, _) <- schemes) {
    test(s"SuRF + $schemeName: membership and ranges have no false negatives") {
      val hope = hopes(schemeName)
      val enc = Harness.keyCodec(hope)
      val sorted = Harness.encodeSorted(keys, enc)
      val surf = Surf(sorted, suffixBits = 8)
      keys.take(1500).foreach(k => assert(surf.mayContain(enc(k)), Bytes.str(k)))
      keys.take(500).foreach { k =>
        val hi = k.clone(); hi(hi.length - 1) = (hi(hi.length - 1) + 1).toByte
        assert(surf.mayContainRange(enc(k), enc(hi)), Bytes.str(k))
      }
    }
  }

  test("Harness.encodeSorted keeps a repeated key once and fails when distinct keys encode equal") {
    val once = Harness.encodeSorted(Array("b", "a", "b").map(Bytes.of), identity)
    assert(once.map(Bytes.str).toSeq == Seq("a", "b"))
    val e = intercept[IllegalArgumentException](
      Harness.encodeSorted(Array("ab", "b", "ac").map(Bytes.of), _.take(1)))
    assert(e.getMessage.contains("6162") && e.getMessage.contains("6163"), e.getMessage)
  }

  test("Harness.runTree produces sane metrics") {
    val row = Harness.runTree("B+tree", "synthetic", "Double-Char", keys,
      harnessHope(Scheme.DoubleChar), nPoint = 2000, nRange = 200)
    assert(row.pointNs > 0 && row.rangeNs > 0 && row.insertNs > 0)
    assert(row.memoryBytes > row.dictBytes && row.dictBytes > 0)
    assert(row.cpr > 1.0)
  }

  test("Harness.runSurf produces sane metrics and zero FPR on present keys") {
    val (row, fpr) = Harness.runSurf("synthetic", "Single-Char", keys,
      harnessHope(Scheme.SingleChar), suffixBits = 8, nPoint = 2000, nRange = 500,
      negatives = Array.fill(500)(Bytes.of("net.none@" + rnd.nextInt(100000))))
    assert(row.pointNs > 0 && row.rangeNs > 0 && row.memoryBytes > 0)
    assert(fpr >= 0.0 && fpr <= 1.0)
  }

  test("HOPE shrinks B+tree memory on compressible keys (§7.2 B+tree claim)") {
    // Tree-only comparison: at this toy scale the fixed dictionary is not
    // amortized over the key count as it is at the paper's 25M keys.
    val plain = Harness.runTree("B+tree", "s", "Uncompressed", keys, None,
      nPoint = 500, nRange = 50)
    val comp = Harness.runTree("B+tree", "s", "Double-Char", keys,
      harnessHope(Scheme.DoubleChar), nPoint = 500, nRange = 50)
    val plainTree = plain.memoryBytes - plain.dictBytes
    val compTree = comp.memoryBytes - comp.dictBytes
    assert(compTree < plainTree, s"compressed $compTree !< plain $plainTree")
  }

  test("HOPE shrinks SuRF (fewer internal levels) on compressible keys") {
    val (plain, _) = Harness.runSurf("s", "Uncompressed", keys, None, nPoint = 500, nRange = 100)
    val (comp, _) = Harness.runSurf("s", "Double-Char", keys, harnessHope(Scheme.DoubleChar),
      nPoint = 500, nRange = 100)
    assert(comp.height < plain.height, s"height ${comp.height} !< ${plain.height}")
  }
}
