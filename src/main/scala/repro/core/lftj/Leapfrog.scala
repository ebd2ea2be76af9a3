package repro.core.lftj

/** Per-run statistics of a Leapfrog execution: `levelCounts(i)` is the number
  * of (i+1)-tuples materialized (|T^{i+1}| of the paper), `extensions` the
  * total number of partial-binding extensions performed. Serializable, so a
  * task can return one hypercube's counters in its accumulator update.
  */
final class LeapfrogStats(n: Int) extends Serializable {
  val levelCounts: Array[Long] = new Array[Long](n)
  var extensions: Long          = 0L
}

/** Leapfrog triejoin (Veldhuizen [14]) over trie relations, as an iterator.
  *
  * Evaluates the natural join of `rels` following the global attribute order
  * the tries were built with. Emitted tuples are indexed by *global level*
  * (position in ord); callers reorder to attribute-id order as needed.
  *
  * @param rels        the relations; each participates at the levels it binds
  * @param numLevels   |attrs(Q)| — the number of global levels
  * @param firstFixed  if set, only bindings whose level-0 value equals this
  *                    are produced (used by the sampling estimator)
  * @param stats       counters filled in during iteration
  */
final class Leapfrog(
    rels: IndexedSeq[TrieRelation],
    numLevels: Int,
    firstFixed: Option[Long] = None,
    val stats: LeapfrogStats = null,
) extends Iterator[Array[Long]] {

  private val st = if (stats == null) new LeapfrogStats(numLevels) else stats

  // Participants per level and, per participant, its local column index.
  private val partRel: Array[Array[Int]] = Array.tabulate(numLevels) { lvl =>
    rels.indices.filter(r => rels(r).levels.contains(lvl)).toArray
  }
  private val partCol: Array[Array[Int]] = Array.tabulate(numLevels) { lvl =>
    partRel(lvl).map(r => rels(r).levels.indexOf(lvl))
  }
  require(partRel.forall(_.nonEmpty), "every level must be bound by some relation")

  // Ranges: for relation r, (lo, hi) after its first d columns are bound.
  private val lo = rels.map(r => new Array[Int](r.arity + 1)).toArray
  private val hi = rels.map(r => new Array[Int](r.arity + 1)).toArray
  rels.indices.foreach { r => lo(r)(0) = 0; hi(r)(0) = rels(r).size }

  private val binding    = new Array[Long](numLevels)
  private val candidates = new Array[Array[Long]](numLevels)
  private val candIdx    = new Array[Int](numLevels)
  private var level      = 0
  private var nextRow: Array[Long] = _
  private var done       = false
  private var steps      = 0L

  candidates(0) = firstFixed match {
    case Some(v) =>
      // Constrained start (sampling): membership probe instead of a full
      // level-0 intersection — one binary search per participant.
      val rs = partRel(0); val cs = partCol(0)
      val present = rs.indices.forall { i =>
        val r = rels(rs(i)); val d = cs(i)
        val s = r.seekGE(d, lo(rs(i))(d), hi(rs(i))(d), v)
        s < hi(rs(i))(d) && r.rows(s)(d) == v
      }
      if (present) Array(v) else Array.emptyLongArray
    case None => intersectAt(0)
  }
  candIdx(0) = 0

  /** Leapfrog k-way intersection of the participants' candidate values at
    * `lvl`, given the current ranges.
    */
  private def intersectAt(lvl: Int): Array[Long] = {
    val rs = partRel(lvl)
    val cs = partCol(lvl)
    val k  = rs.length
    if (k == 1) {
      val r = rels(rs(0)); val d = cs(0)
      return r.distinctValues(d, lo(rs(0))(d), hi(rs(0))(d))
    }
    val buf = collection.mutable.ArrayBuilder.make[Long]
    val pos = new Array[Int](k)
    var i = 0
    while (i < k) {
      pos(i) = lo(rs(i))(cs(i))
      if (pos(i) >= hi(rs(i))(cs(i))) return buf.result()
      i += 1
    }
    var running = true
    while (running) {
      // Find the max of the current values; then seek everyone up to it.
      var vmax = Long.MinValue
      i = 0
      while (i < k) {
        val v = rels(rs(i)).rows(pos(i))(cs(i))
        if (v > vmax) vmax = v
        i += 1
      }
      var agree = true
      i = 0
      while (i < k && running) {
        val r = rels(rs(i)); val d = cs(i)
        pos(i) = r.seekGE(d, pos(i), hi(rs(i))(d), vmax)
        if (pos(i) >= hi(rs(i))(d)) { running = false }
        else if (r.rows(pos(i))(d) != vmax) agree = false
        i += 1
      }
      if (running && agree) {
        buf += vmax
        // Advance each participant past vmax.
        i = 0
        while (i < k && running) {
          val r = rels(rs(i)); val d = cs(i)
          pos(i) = r.equalRangeEnd(d, pos(i), hi(rs(i))(d), vmax)
          if (pos(i) >= hi(rs(i))(d)) running = false
          i += 1
        }
      }
    }
    buf.result()
  }

  /** Binds value v at `lvl`: narrows every participant's range to the rows
    * matching v in its column for this level.
    */
  private def bind(lvl: Int, v: Long): Unit = {
    binding(lvl) = v
    val rs = partRel(lvl); val cs = partCol(lvl)
    var i = 0
    while (i < rs.length) {
      val r = rels(rs(i)); val d = cs(i)
      val s = r.seekGE(d, lo(rs(i))(d), hi(rs(i))(d), v)
      val e = r.equalRangeEnd(d, s, hi(rs(i))(d), v)
      lo(rs(i))(d + 1) = s
      hi(rs(i))(d + 1) = e
      i += 1
    }
  }

  private def advance(): Unit = {
    while (level >= 0) {
      steps += 1
      if ((steps & 0xFFFFFL) == 0L && Thread.currentThread().isInterrupted)
        throw new RuntimeException("leapfrog interrupted (job cancelled)")
      if (candIdx(level) < candidates(level).length) {
        val v = candidates(level)(candIdx(level))
        candIdx(level) += 1
        if (level == 0 && firstFixed.exists(_ != v)) {
          // Skip non-matching roots when sampling with a fixed first value.
        } else {
          bind(level, v)
          st.extensions += 1
          st.levelCounts(level) += 1
          if (level == numLevels - 1) {
            nextRow = binding.clone()
            return
          } else {
            level += 1
            candidates(level) = intersectAt(level)
            candIdx(level) = 0
          }
        }
      } else {
        level -= 1
      }
    }
    done = true
  }

  override def hasNext: Boolean = {
    if (!done && nextRow == null) advance()
    nextRow != null
  }

  override def next(): Array[Long] = {
    if (!hasNext) throw new NoSuchElementException
    val r = nextRow
    nextRow = null
    r
  }

  /** Drains the iterator, returning only the match count (for sampling). */
  def countAll(): Long = {
    var c = 0L
    while (hasNext) { next(); c += 1 }
    c
  }
}
