package org.apache.spark.sql.hope

import org.apache.spark.sql.internal.types.AbstractStringType
import org.apache.spark.sql.types.StringType

/** The input type of `hope_encode`: strings whose collation orders them by
  * their UTF-8 bytes (UTF8_BINARY). The encoding keeps byte order, so under
  * any other collation the encoded order would disagree with the column's.
  * `StringType.supportsBinaryOrdering` is private to `org.apache.spark.sql`,
  * so this type lives under that package.
  */
case object BinaryOrderedString extends AbstractStringType(supportsTrimCollation = false) {
  override def acceptsStringType(other: StringType): Boolean = other.supportsBinaryOrdering
  override private[sql] def simpleString: String = "string collate UTF8_BINARY"
}
