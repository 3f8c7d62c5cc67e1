package repro.core

/** The encoder written out as plainly as possible, as the reference the fast
  * encode loops are checked against: look up each symbol with `index.lookup`,
  * write its code as `'0'`/`'1'` characters, and step over it by the length
  * of its interval's symbol.
  */
object ReferenceEncoder {

  /** The bits of `key`'s encoding under `h`, one character each. */
  def bits(h: BuiltHope, key: Array[Byte]): String = {
    val sb = new StringBuilder
    var off = 0
    while (off < key.length) {
      val e = h.index.lookup(key, off)
      for (i <- h.codeLens(e) - 1 to 0 by -1) sb += (if (((h.codes(e) >>> i) & 1) == 1) '1' else '0')
      off += h.intervals.symbols(e).length
    }
    sb.result()
  }

  /** `bits(h, key)` packed MSB-first and zero-padded to whole bytes. */
  def encode(h: BuiltHope, key: Array[Byte]): Encoded = {
    val b = bits(h, key)
    val out = new Array[Byte]((b.length + 7) / 8)
    for (i <- b.indices if b(i) == '1') out(i / 8) = (out(i / 8) | (0x80 >>> (i % 8))).toByte
    Encoded(out, b.length)
  }
}
