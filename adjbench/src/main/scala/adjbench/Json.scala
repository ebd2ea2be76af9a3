package adjbench

/** Minimal JSON rendering for the benchmark's reports. */
object Json {

  /** An object whose keys keep their insertion order. */
  def obj(kvs: (String, Any)*): collection.immutable.ListMap[String, Any] =
    collection.immutable.ListMap(kvs: _*)

  def apply(v: Any): String = v match {
    case null                 => "null"
    case s: String            => quote(s)
    case b: Boolean           => b.toString
    case d: Double            => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Number            => n.toString
    case o: Option[_]         => o.map(apply).getOrElse("null")
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => s"${quote(k.toString)}: ${apply(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_]      => xs.map(apply).mkString("[", ", ", "]")
    case other                => quote(other.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case '\t' => sb ++= "\\t"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c    => sb += c
    }
    sb += '"'
    sb.result()
  }
}
