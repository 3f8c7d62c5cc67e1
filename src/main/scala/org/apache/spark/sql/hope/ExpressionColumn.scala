package org.apache.spark.sql.hope

import org.apache.spark.sql.Column
import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.classic.ExpressionUtils

/** Wraps a Catalyst expression as a DataFrame column. Spark 4.1's
  * `ExpressionUtils` is private to `org.apache.spark.sql`, so this forwarder
  * lives under that package.
  */
object ExpressionColumn {
  def apply(e: Expression): Column = ExpressionUtils.column(e)
}
