package repro.eval

import repro.core.{Hope, Scheme}

/** Figure 8 microbenchmark driver: per (scheme, dataset, dict size) measure
  * compression rate, single-threaded encoding latency per source byte, and
  * dictionary memory — the three rows of the paper's Figure 8.
  */
object Microbench {

  final case class Row(dataset: String, scheme: String, entries: Int,
                       cpr: Double, nsPerChar: Double, dictBytes: Long) extends Serializable

  /** Build from `sample`, then measure over `keys` (single thread, keys
    * compressed one at a time as in §6.1, timed by [[Measure.nsPerOp]]).
    */
  def run(dataset: String, keys: Array[Array[Byte]], sample: Array[Array[Byte]],
          scheme: Scheme): Row = {
    val hope = Hope.build(sample, scheme)
    val nsPerKey = Measure.nsPerOp(keys.length)(i => hope.encode(keys(i)).bitLen)
    val raw = keys.map(_.length.toLong).sum
    Row(dataset, hope.scheme.name, hope.entries,
      cpr = Hope.compressionRate(hope, keys.iterator), nsPerChar = nsPerKey * keys.length / raw,
      dictBytes = hope.dictMemoryBytes)
  }
}

/** Plain-text table rendering for bench output and EXPERIMENTS.md. */
object Tables {
  def render(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"\n### $title" +: line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  def fmt(d: Double): String = if (d >= 100) f"$d%.0f" else if (d >= 10) f"$d%.1f" else f"$d%.2f"
  def kb(b: Long): String = if (b >= (1L << 20)) f"${b / 1048576.0}%.1fMB" else f"${b / 1024.0}%.1fKB"

  /** Also append the table to bench_results/ for EXPERIMENTS.md assembly. */
  def emit(name: String, table: String): Unit = {
    println(table)
    val dir = java.nio.file.Paths.get("bench_results")
    java.nio.file.Files.createDirectories(dir)
    java.nio.file.Files.write(dir.resolve(s"$name.md"),
      (table + "\n").getBytes(java.nio.charset.StandardCharsets.UTF_8))
  }
}
