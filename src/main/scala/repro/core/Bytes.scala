package repro.core

import java.nio.charset.StandardCharsets
import java.util.Arrays

/** Unsigned-lexicographic byte-string helpers used throughout the compressor
  * and the search-tree substrates. All key material is `Array[Byte]` compared
  * as unsigned bytes (the "string axis" of the paper, §3.1).
  */
object Bytes {

  /** Unsigned lexicographic comparison (a proper prefix sorts first).
    *
    * Only the sign of the result is specified: negative, zero or positive as
    * `a` sorts before, equal to or after `b`. The magnitude is whatever the
    * JDK returns. `Arrays.compareUnsigned` is a HotSpot intrinsic over
    * `ArraysSupport.vectorizedMismatch`, which compares 8 bytes per step —
    * the JVM's `memcmp`.
    */
  def compare(a: Array[Byte], b: Array[Byte]): Int = Arrays.compareUnsigned(a, b)

  /** Compare the suffix of `key` starting at `off` against `b` without
    * allocating the suffix. Equivalent to `compare(key.drop(off), b)`, and,
    * like it, specified by sign only.
    */
  def compareSuffix(key: Array[Byte], off: Int, b: Array[Byte]): Int =
    Arrays.compareUnsigned(key, off, key.length, b, 0, b.length)

  /** Length of the longest common prefix of `a` and `b`. */
  def lcp(a: Array[Byte], b: Array[Byte]): Int = {
    val i = Arrays.mismatch(a, b)
    if (i < 0) a.length else i
  }

  /** Length of the longest common prefix of `a[aFrom..)` and `b[bFrom..)`. */
  def lcp(a: Array[Byte], aFrom: Int, b: Array[Byte], bFrom: Int): Int = {
    val i = Arrays.mismatch(a, aFrom, a.length, b, bFrom, b.length)
    if (i < 0) a.length - aFrom else i
  }

  /** Ordering instance for sorted collections of byte-string keys. */
  implicit val ordering: Ordering[Array[Byte]] = (x: Array[Byte], y: Array[Byte]) => compare(x, y)

  /** The key bytes of a string column value: UTF-8, the bytes `hope_encode`
    * sees (`UTF8String.getBytes`), so a dictionary is trained on what it encodes.
    */
  def utf8(s: String): Array[Byte] = s.getBytes(StandardCharsets.UTF_8)

  /** ISO-8859-1 round-trips every byte value 1:1 — used to key hash maps. */
  def str(a: Array[Byte]): String = new String(a, StandardCharsets.ISO_8859_1)

  /** Inverse of [[str]]. */
  def of(s: String): Array[Byte] = s.getBytes(StandardCharsets.ISO_8859_1)

  /** Hex rendering for debugging and error messages. */
  def hex(a: Array[Byte]): String = a.map(b => f"${b & 0xff}%02x").mkString
}

/** A bit-packed encoded key: `bytes` holds `bitLen` significant bits MSB-first,
  * zero-padded to a byte boundary. Comparison is exact bitstring order (a
  * strict bit-prefix sorts first), implemented via the padded bytes plus the
  * bit length as tiebreak — sound because padding bits are zero.
  */
final case class Encoded(bytes: Array[Byte], bitLen: Int) extends Ordered[Encoded] {
  override def compare(o: Encoded): Int = {
    val c = Bytes.compare(bytes, o.bytes)
    if (c != 0) c else bitLen - o.bitLen
  }
  override def equals(o: Any): Boolean = o match {
    case e: Encoded => bitLen == e.bitLen && java.util.Arrays.equals(bytes, e.bytes)
    case _          => false
  }
  override def hashCode(): Int = java.util.Arrays.hashCode(bytes) * 31 + bitLen
  override def toString: String = s"Encoded(${Bytes.hex(bytes)}, $bitLen bits)"
}
