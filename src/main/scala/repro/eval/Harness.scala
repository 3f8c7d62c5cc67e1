package repro.eval

import repro.core.{BuiltHope, Bytes, Hope, Scheme}
import repro.keys.{KeyShuffle, Zipf}
import repro.surf.Surf

/** One row of the YCSB-style tree evaluation (Figures 10/12/16). Latencies
  * in ns/op, memory in bytes (HOPE dictionary included, §7.2).
  */
final case class TreeEvalRow(
    tree: String,
    dataset: String,
    scheme: String,
    keys: Int,
    pointNs: Double,
    rangeNs: Double,
    insertNs: Double,
    memoryBytes: Long,
    dictBytes: Long,
    height: Double,
    cpr: Double,
) extends Serializable

/** The seven per-tree configurations of §7 (Uncompressed + six HOPE setups). */
object Configs {
  val all: Seq[(String, Option[Scheme])] = Seq(
    "Uncompressed"       -> None,
    "Single-Char"        -> Some(Scheme.SingleChar),
    "Double-Char"        -> Some(Scheme.DoubleChar),
    "3-Grams(64K)"       -> Some(Scheme.NGrams(3, 1 << 16)),
    "4-Grams(64K)"       -> Some(Scheme.NGrams(4, 1 << 16)),
    "ALM-Improved(4K)"   -> Some(Scheme.AlmImproved(1 << 12)),
    "ALM-Improved(64K)"  -> Some(Scheme.AlmImproved(1 << 16)),
  )
}

/** Single-threaded YCSB-style workload runner (§7.2): encode with the given
  * HOPE dictionary (`None` keeps the raw keys; callers build it on a sample,
  * 1 % in §6), bulk-load 90% of the keys, then measure Zipf point queries,
  * Zipf-start range scans (workload E, scan length ≤ 100), and the inserts
  * of the held-out 10%. Query keys pass through the encoder inside the timed
  * region — the encoding overhead is part of the measured latency, exactly
  * as in the paper.
  */
object Harness {

  final val ScanLen = 50

  /** Encode raw → tree key under the optional scheme (terminated form). */
  def keyCodec(hope: Option[BuiltHope]): Array[Byte] => Array[Byte] = hope match {
    case None    => identity
    case Some(h) => (k: Array[Byte]) => h.encodeTerminated(k).bytes
  }

  def runTree(treeName: String, dataset: String, schemeName: String,
              keys: Array[Array[Byte]], hope: Option[BuiltHope],
              nPoint: Int = 30000, nRange: Int = 2000): TreeEvalRow = {
    val enc = keyCodec(hope)
    val tree = KVTree.create(treeName)

    val nLoad = (keys.length * 0.9).toInt
    var i = 0
    while (i < nLoad) { tree.insert(enc(keys(i)), i.toLong); i += 1 }

    val zipf = new Zipf(nLoad, seed = 31)
    val perm = KeyShuffle.permutation(nLoad, seed = 17)

    // --- point queries (workload C), with warm-up
    val pointIdx = Array.fill(nPoint)(perm(zipf.next()))
    var w = 0
    while (w < nPoint / 5) { tree.get(enc(keys(pointIdx(w)))); w += 1 }
    var sink = 0L
    val tp0 = System.nanoTime()
    i = 0
    while (i < nPoint) { sink += tree.get(enc(keys(pointIdx(i)))); i += 1 }
    val pointNs = (System.nanoTime() - tp0).toDouble / nPoint
    require(sink >= 0, "unreachable — keeps the JIT honest")

    // --- range queries (workload E): start at a Zipf key, scan ScanLen
    val rangeIdx = Array.fill(nRange)(perm(zipf.next()))
    var sink2 = 0
    val tr0 = System.nanoTime()
    i = 0
    while (i < nRange) { sink2 += tree.scan(enc(keys(rangeIdx(i))), ScanLen); i += 1 }
    val rangeNs = (System.nanoTime() - tr0).toDouble / nRange
    require(sink2 >= 0)

    // --- inserts: the held-out 10%
    val ti0 = System.nanoTime()
    i = nLoad
    while (i < keys.length) { tree.insert(enc(keys(i)), i.toLong); i += 1 }
    val insertNs =
      if (keys.length > nLoad) (System.nanoTime() - ti0).toDouble / (keys.length - nLoad)
      else 0.0

    val dictBytes = hope.map(_.dictMemoryBytes).getOrElse(0L)
    val cpr = hope.map(h => Hope.compressionRate(h, keys.iterator.take(20000))).getOrElse(1.0)

    TreeEvalRow(treeName, dataset, schemeName, keys.length, pointNs, rangeNs,
      insertNs, tree.memoryBytes + dictBytes, dictBytes, tree.avgDepth, cpr)
  }

  /** SuRF variant (Figure 10): bulk build from sorted keys; range query is
    * [key, key-with-last-byte-incremented] as in §7.1; plus the false-
    * positive-rate probe of Figure 11.
    */
  def runSurf(dataset: String, schemeName: String, keys: Array[Array[Byte]],
              hope: Option[BuiltHope], suffixBits: Int = 0,
              nPoint: Int = 30000, nRange: Int = 5000,
              negatives: Array[Array[Byte]] = Array.empty): (TreeEvalRow, Double) = {
    val enc = keyCodec(hope)
    val encodedSorted = keys.map(enc).sortWith(Bytes.compare(_, _) < 0)
    val surf = Surf(dedupSorted(encodedSorted), suffixBits)

    val zipf = new Zipf(keys.length, seed = 31)
    val perm = KeyShuffle.permutation(keys.length, seed = 17)

    val pointIdx = Array.fill(nPoint)(perm(zipf.next()))
    var w = 0
    while (w < nPoint / 5) { surf.mayContain(enc(keys(pointIdx(w)))); w += 1 }
    var hits = 0
    val tp0 = System.nanoTime()
    var i = 0
    while (i < nPoint) { if (surf.mayContain(enc(keys(pointIdx(i))))) hits += 1; i += 1 }
    val pointNs = (System.nanoTime() - tp0).toDouble / nPoint
    require(hits == nPoint, s"SuRF false negative: $hits/$nPoint")

    // closed ranges: [k, k + last byte + 1]
    val rangeIdx = Array.fill(nRange)(perm(zipf.next()))
    var rHits = 0
    val tr0 = System.nanoTime()
    i = 0
    while (i < nRange) {
      val k = keys(rangeIdx(i))
      val hiKey = k.clone()
      hiKey(hiKey.length - 1) = (hiKey(hiKey.length - 1) + 1).toByte
      if (surf.mayContainRange(enc(k), enc(hiKey))) rHits += 1
      i += 1
    }
    val rangeNs = (System.nanoTime() - tr0).toDouble / nRange
    require(rHits == nRange, s"SuRF range false negative: $rHits/$nRange")

    var fp = 0
    negatives.foreach { nk => if (surf.mayContain(enc(nk))) fp += 1 }
    val fpr = if (negatives.isEmpty) 0.0 else fp.toDouble / negatives.length

    val dictBytes = hope.map(_.dictMemoryBytes).getOrElse(0L)
    (TreeEvalRow("SuRF", dataset, schemeName, keys.length, pointNs, rangeNs, 0.0,
      surf.memoryBytes + dictBytes, dictBytes, surf.avgLeafDepth, 1.0), fpr)
  }

  def dedupSorted(sorted: Array[Array[Byte]]): Array[Array[Byte]] = {
    val out = new scala.collection.mutable.ArrayBuffer[Array[Byte]](sorted.length)
    var i = 0
    while (i < sorted.length) {
      if (i == 0 || Bytes.compare(sorted(i - 1), sorted(i)) != 0) out += sorted(i)
      i += 1
    }
    out.toArray
  }
}
