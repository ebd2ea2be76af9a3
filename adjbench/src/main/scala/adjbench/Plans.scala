package adjbench

import java.io.File
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files
import java.security.MessageDigest

import repro.core.adj.Adj

/** Plan signatures: pre-compute set, traversal, attribute order and
  * predicted shuffled tuples — everything the optimizer decides.
  */
object Plans {

  private val PlanLine =
    """\[adj\] plan: Plan\(pre=(\{[^}]*\}), traversal=([^,]*), ord=(.*?), est=[^)]*\) shares=p=\([^)]*\) tuples=(\S+)""".r.unanchored

  /** The signature from ADJ's report, or else from the plan line ADJ logs
    * to stderr (the `spark.sql` path returns no report).
    */
  def signature(stderr: String, report: Option[Adj.Report]): String = report match {
    case Some(r) =>
      val p = r.plan
      s"pre=${p.preCompute.toSeq.sorted.mkString("{", ",", "}")} traversal=${p.traversal.mkString("<")} " +
        s"ord=${p.ord.mkString(",")} shuffled=${r.shuffledTuples}"
    case None => stderr match {
      case PlanLine(pre, trav, ord, tuples) => s"pre=$pre traversal=$trav ord=$ord shuffled=$tuples"
      case _                                => "unknown"
    }
  }

  /** Modal warm plan, warm queries off it, and whether the cold first
    * query picked another plan.
    */
  final case class Summary(modal: String, warmFlips: Int, firstFlip: Int, first: String) {
    def json = Json.obj("modal" -> modal, "warm_flips" -> warmFlips, "first_flip" -> firstFlip, "first" -> first)
  }

  def summary(first: QueryRun, warm: Seq[QueryRun]): Summary = {
    val sigs  = warm.filter(_.ok).map(_.signature)
    val modal = if (sigs.isEmpty) first.signature else sigs.groupBy(identity).maxBy(_._2.length)._1
    Summary(modal, sigs.count(_ != modal), if (first.signature != modal) 1 else 0, first.signature)
  }
}

/** DuckDB reference digests, cached on disk by query and by a hash of the
  * exact edge rows the program is given, so a seed is only evaluated once
  * per checkout.
  */
object Reference {

  /** @return (digest, seconds DuckDB took or 0 when cached, cached?) */
  def load(dir: File, w: Workload, graphRows: Seq[(Long, Long)], threads: Int): (Digest, Double, Boolean) = {
    val md = MessageDigest.getInstance("SHA-256")
    graphRows.sorted.foreach { case (u, v) => md.update(s"$u,$v;".getBytes(UTF_8)) }
    val key  = md.digest().take(12).map(b => f"$b%02x").mkString
    val file = new File(dir, s"${w.queryName}-$key.txt")
    if (file.isFile) {
      val Array(r, s, s2) = new String(Files.readAllBytes(file.toPath), UTF_8).trim.split(" ")
      (Digest(r.toLong, s.toLong, s2.toLong), 0.0, true)
    } else {
      val t0  = System.nanoTime()
      val ref = Digest.reference(w.query, graphRows, threads)
      val sec = (System.nanoTime() - t0) / 1e9
      dir.mkdirs()
      val tmp = new File(dir, s"${file.getName}.tmp")
      Files.write(tmp.toPath, s"${ref.rows} ${ref.sum} ${ref.sumSq}\n".getBytes(UTF_8))
      Files.move(tmp.toPath, file.toPath, java.nio.file.StandardCopyOption.ATOMIC_MOVE)
      (ref, sec, false)
    }
  }
}
