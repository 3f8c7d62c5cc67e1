package repro.core

import org.apache.spark.sql.{DataFrame, Encoders, SparkSession}
import org.apache.spark.sql.catalyst.expressions.{ExpectsInputTypes, Expression, UnaryExpression}
import org.apache.spark.sql.catalyst.expressions.codegen.CodegenFallback
import org.apache.spark.sql.classic.ColumnConversions
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.hope.{BinaryOrderedString, ExpressionColumn}
import org.apache.spark.sql.types.{BinaryType, DataType}
import org.apache.spark.unsafe.types.UTF8String

/** Catalyst expression wrapping a built HOPE encoder: `hope_encode(key)`
  * yields the zero-padded encoded bytes (terminated form — padded-byte order
  * equals raw-key order for NUL-free keys, see [[Axis]]). The dictionary is
  * immutable after the build phase, so the expression is a pure function and
  * serializes with the plan (DESIGN.md: Expression extension point).
  *
  * The input must be a string whose collation orders by bytes: any other
  * type or collation fails at analysis, naming `hope_encode`.
  */
final case class HopeEncodeExpression(child: Expression, hope: BuiltHope)
    extends UnaryExpression with ExpectsInputTypes with CodegenFallback {

  override def inputTypes = Seq(BinaryOrderedString)
  override def dataType: DataType = BinaryType
  override def nullable: Boolean = child.nullable

  override def nullSafeEval(input: Any): Any =
    hope.encodeTerminated(input.asInstanceOf[UTF8String].getBytes).bytes

  override protected def withNewChildInternal(newChild: Expression): Expression =
    copy(child = newChild)

  override def prettyName: String = "hope_encode"
}

/** Spark-side HOPE workflow (repro band: per-partition order-preserving key
  * encoding before building in-memory trees).
  */
object HopeSpark {

  /** Sample keys from a DataFrame column — HOPE's build-phase input (§5:
    * "samples the initial bulk-loaded keys"). Fraction as in §6 (1%). Null
    * keys are dropped after the sample is collected, so the Spark plan is
    * that of the plain sample.
    */
  def sampleKeys(df: DataFrame, col: String, fraction: Double, seed: Long = 1): Array[Array[Byte]] =
    df.select(col).sample(withReplacement = false, fraction, seed)
      .as[String](Encoders.STRING)
      .collect()
      .collect { case k if k != null => Bytes.utf8(k) }

  /** Build a HOPE dictionary from a key column: Spark draws the sample, the
    * (small) dictionary is constructed on the driver.
    */
  def build(df: DataFrame, col: String, scheme: Scheme, fraction: Double = 0.01,
            seed: Long = 1): BuiltHope = {
    val sample = sampleKeys(df, col, fraction, seed)
    require(sample.nonEmpty, "empty sample — raise the fraction")
    Hope.build(sample, scheme)
  }

  /** Register `hope_encode_<name>` in the session's function registry. */
  def registerSql(spark: SparkSession, name: String, hope: BuiltHope): String = {
    val fn = s"hope_encode_$name"
    spark.sessionState.functionRegistry.createOrReplaceTempFunction(
      fn, (exprs: Seq[Expression]) => HopeEncodeExpression(exprs.head, hope), "scala_udf")
    fn
  }

  /** Append an order-preserving encoded binary column (per-partition pure
    * transformation — no shuffle is introduced). The column is built directly
    * from [[HopeEncodeExpression]]; the function registry is not touched.
    */
  def encodeColumn(df: DataFrame, keyCol: String, hope: BuiltHope,
                   outCol: String = "k_enc"): DataFrame = {
    val key = ColumnConversions.expression(col(keyCol))
    df.select(col("*"), ExpressionColumn(HopeEncodeExpression(key, hope)).as(outCol))
  }
}
