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

    // --- point queries (workload C)
    val pointIdx = zipf.draw(nPoint).map(perm)
    val pointNs = Measure.nsPerOp(nPoint)(i => tree.get(enc(keys(pointIdx(i)))))

    // --- range queries (workload E): start at a Zipf key, scan ScanLen
    val rangeIdx = zipf.draw(nRange).map(perm)
    val rangeNs = Measure.nsPerOp(nRange)(i => tree.scan(enc(keys(rangeIdx(i))), ScanLen))

    // --- inserts: the held-out 10%, one pass (a second would time updates)
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
    val surf = Surf(encodeSorted(keys, enc), suffixBits)

    val zipf = new Zipf(keys.length, seed = 31)
    val perm = KeyShuffle.permutation(keys.length, seed = 17)

    // a filter may say yes to an absent key, never no to a stored one
    def falseNegative(k: Array[Byte]): Nothing =
      throw new IllegalArgumentException(s"SuRF false negative on ${Bytes.hex(k)}")

    val pointIdx = zipf.draw(nPoint).map(perm)
    val pointNs = Measure.nsPerOp(nPoint) { i =>
      val k = keys(pointIdx(i))
      if (surf.mayContain(enc(k))) 1L else falseNegative(k)
    }

    // closed ranges: [k, k + last byte + 1]
    val rangeIdx = zipf.draw(nRange).map(perm)
    val rangeNs = Measure.nsPerOp(nRange) { i =>
      val k = keys(rangeIdx(i))
      val hiKey = k.clone()
      hiKey(hiKey.length - 1) = (hiKey(hiKey.length - 1) + 1).toByte
      if (surf.mayContainRange(enc(k), enc(hiKey))) 1L else falseNegative(k)
    }

    val fpr =
      if (negatives.isEmpty) 0.0
      else negatives.count(nk => surf.mayContain(enc(nk))).toDouble / negatives.length

    val dictBytes = hope.map(_.dictMemoryBytes).getOrElse(0L)
    (TreeEvalRow("SuRF", dataset, schemeName, keys.length, pointNs, rangeNs, 0.0,
      surf.memoryBytes + dictBytes, dictBytes, surf.avgLeafDepth, 1.0), fpr)
  }

  /** The keys under `enc`, sorted and each once: SuRF's bulk-load input. A
    * key given twice is kept once.
    *
    * @throws IllegalArgumentException if two distinct keys encode equal,
    *   naming both: the encoding is not injective on them
    */
  def encodeSorted(keys: Array[Array[Byte]], enc: Array[Byte] => Array[Byte]): Array[Array[Byte]] = {
    val sorted = keys.map(k => (enc(k), k)).sortWith((a, b) => Bytes.compare(a._1, b._1) < 0)
    val out = new scala.collection.mutable.ArrayBuffer[Array[Byte]](sorted.length)
    for (i <- sorted.indices) {
      val (e, k) = sorted(i)
      if (i == 0 || Bytes.compare(sorted(i - 1)._1, e) != 0) out += e
      else {
        val prev = sorted(i - 1)._2
        require(Bytes.compare(prev, k) == 0,
          s"keys ${Bytes.hex(prev)} and ${Bytes.hex(k)} both encode to ${Bytes.hex(e)}")
      }
    }
    out.toArray
  }
}
