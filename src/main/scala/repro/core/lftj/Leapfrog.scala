package repro.core.lftj

import scala.collection.mutable

/** Per-run statistics of a Leapfrog execution: `levelCounts(i)` is the number
  * of (i+1)-tuples materialized (|T^{i+1}| of the paper), `extensions` the
  * total number of partial-binding extensions performed. `memoHits(i)` is
  * the number of times level i was opened and replayed from the memo, and
  * `memoStored(i)` the memo's size at level i: one per stored key plus one
  * per stored binding. Serializable, so a task can return one hypercube's
  * counters in its accumulator update.
  */
final class LeapfrogStats(n: Int) extends Serializable {
  val levelCounts: Array[Long] = new Array[Long](n)
  var extensions: Long          = 0L
  val memoHits: Array[Long]     = new Array[Long](n)
  val memoStored: Array[Long]   = new Array[Long](n)
}

/** Leapfrog triejoin (Veldhuizen [14]) over trie relations, as an iterator.
  *
  * Evaluates the natural join of `rels` following the global attribute order
  * the tries were built with. Emitted tuples are indexed by *global level*
  * (position in ord); callers reorder to attribute-id order as needed.
  *
  * Each participant of a level is one cursor, a row inside its relation's
  * current range. The leapfrog search is Veldhuizen's rotation: it visits
  * the cursors round-robin and seeks each one to the largest value seen so
  * far, which rises whenever a seek overshoots, until all of them agree in a
  * row. A cursor on a column 0 with offsets seeks by one offsets read; every
  * other cursor gallops. Binding that value narrows every participant's
  * range one level down to the run of rows holding it, and moves the cursor
  * past the run. Every distinct binding is emitted once; a duplicated input
  * tuple is a run of length > 1 at full depth, counted by [[multiplicity]].
  *
  * A level's result depends only on its participants' ranges, so a level
  * whose ranges do not depend on level 0 is memoized (CLFTJ's cache,
  * Kalinsky et al., "Flexible Caching in Trie Joins", EDBT 2017). Its
  * *narrowed* participants read a column d > 0; the run their range holds
  * starts at a row that identifies it, so the start rows `lo` are the key.
  * Level L > 0 is memoized when no narrowed participant's relation binds
  * level 0 and `firstFixed` is unset (with one level-0 value such a key
  * would not repeat). An open whose key is stored replays its bindings —
  * each value with every participant's child range — instead of searching;
  * a miss searches as usual, records its bindings, and stores them once the
  * level is exhausted. The memo lasts the whole run. Its keys plus bindings
  * stay at most the input tuple count (Σ sizes); past that, it stores
  * nothing more. Replayed bindings are counted like searched ones, so every
  * counter but the memo's own is the same with or without it.
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
  // Per participant, the column array it reads.
  private val partVals: Array[Array[Array[Long]]] = Array.tabulate(numLevels) { lvl =>
    partRel(lvl).zip(partCol(lvl)).map { case (r, d) => rels(r).cols(d) }
  }
  // Per participant, its relation if it reads a column 0 with offsets, else
  // null: it gallops.
  private val partDense: Array[Array[TrieRelation]] = Array.tabulate(numLevels) { lvl =>
    partRel(lvl).zip(partCol(lvl)).map { case (r, d) => if (d == 0 && rels(r).offsets != null) rels(r) else null }
  }
  require(partRel.forall(_.nonEmpty), "every level must be bound by some relation")

  // Ranges: for relation r, [lo, hi) after its first d columns are bound.
  private val lo = rels.map(r => new Array[Int](r.arity + 1)).toArray
  private val hi = rels.map(r => new Array[Int](r.arity + 1)).toArray
  rels.indices.foreach { r => lo(r)(0) = 0; hi(r)(0) = rels(r).size }
  // Level 0 is column 0 of each of its participants: a fixed first value
  // narrows their whole relation to the rows holding it.
  firstFixed.foreach { v =>
    partRel(0).foreach { r =>
      lo(r)(0) = rels(r).seekGE(0, 0, rels(r).size, v)
      hi(r)(0) = rels(r).equalRangeEnd(0, lo(r)(0), rels(r).size, v)
    }
  }

  // pos(lvl)(i): the cursor of participant i of level lvl; end(lvl)(i): the
  // end of its range, copied from `hi` when the level is opened.
  private val pos     = partRel.map(rs => new Array[Int](rs.length))
  private val end     = partRel.map(rs => new Array[Int](rs.length))
  private val binding = new Array[Long](numLevels)
  private var level   = 0
  private var nextRow: Array[Long] = _
  private var done    = false
  private var steps   = 0L
  private var mult    = 0L

  // The memo of each memoized level, by key, else null. An entry holds one
  // record per binding: the value, then per participant its child range
  // packed as lo << 32 | hi. Keys are mixed-radix over the narrowed
  // participants' relation sizes; a level whose radix would overflow a Long
  // is not memoized.
  private val memo: Array[mutable.LongMap[Array[Long]]] = Array.tabulate(numLevels) { lvl =>
    val narrowed = partRel(lvl).indices.filter(partCol(lvl)(_) > 0).map(i => rels(partRel(lvl)(i)))
    if (lvl > 0 && firstFixed.isEmpty && narrowed.forall(_.levels(0) != 0) &&
        narrowed.map(t => BigInt(math.max(t.size, 1))).product <= Long.MaxValue) mutable.LongMap.empty[Array[Long]]
    else null
  }
  private val memoCap  = rels.map(_.size.toLong).sum
  private var memoUsed = 0L
  private var memoFull = false
  // Per level: the entry it replays, or null while it searches; the next
  // record to replay, or the length recorded (-1 while not recording); and
  // its record buffer, if it is memoized.
  private val replay = new Array[Array[Long]](numLevels)
  private val at     = Array.fill(numLevels)(-1)
  private val recBuf = Array.tabulate(numLevels) { l =>
    if (memo(l) == null) null else new Array[Long](8 * (partRel(l).length + 1))
  }
  open(0)

  /** Opens `lvl`: replays its memo entry if its key is stored, else puts its
    * cursors at the start of their ranges (and records, if it is memoized
    * and the memo has room).
    */
  private def open(lvl: Int): Unit = {
    val rs = partRel(lvl); val cs = partCol(lvl); val p = pos(lvl); val e = end(lvl)
    if (memo(lvl) != null) {
      replay(lvl) = memo(lvl).getOrNull(keyOf(lvl))
      if (replay(lvl) != null) { at(lvl) = 0; st.memoHits(lvl) += 1; return }
      at(lvl) = if (memoFull) -1 else 0
    }
    var i = 0
    while (i < p.length) { p(i) = lo(rs(i))(cs(i)); e(i) = hi(rs(i))(cs(i)); i += 1 }
  }

  /** The memo key of `lvl`: its narrowed participants' range starts, which
    * stay fixed while it is open.
    */
  private def keyOf(lvl: Int): Long = {
    val rs = partRel(lvl); val cs = partCol(lvl)
    var k = 0L
    var i = 0
    while (i < rs.length) {
      if (cs(i) > 0) k = k * math.max(rels(rs(i)).size, 1) + lo(rs(i))(cs(i))
      i += 1
    }
    k
  }

  /** Binds the next value of `lvl` and narrows its participants' ranges to
    * it; false once the level is exhausted.
    */
  private def nextBinding(lvl: Int): Boolean = {
    val e = replay(lvl)
    if (e != null) {
      val j = at(lvl)
      if (j == e.length) return false
      val rs = partRel(lvl); val cs = partCol(lvl)
      binding(lvl) = e(j)
      var i = 0
      while (i < rs.length) {
        val x = e(j + 1 + i)
        lo(rs(i))(cs(i) + 1) = (x >>> 32).toInt
        hi(rs(i))(cs(i) + 1) = x.toInt
        i += 1
      }
      at(lvl) = j + 1 + rs.length
      true
    } else if (search(lvl)) {
      bind(lvl)
      if (at(lvl) >= 0) record(lvl)
      true
    } else {
      if (at(lvl) >= 0) store(lvl)
      false
    }
  }

  /** Appends the binding of `lvl` to its record buffer. */
  private def record(lvl: Int): Unit = {
    val rs = partRel(lvl); val cs = partCol(lvl); val j = at(lvl)
    if (j + 1 + rs.length > recBuf(lvl).length)
      recBuf(lvl) = java.util.Arrays.copyOf(recBuf(lvl), 2 * recBuf(lvl).length)
    val b = recBuf(lvl)
    b(j) = binding(lvl)
    var i = 0
    while (i < rs.length) {
      b(j + 1 + i) = lo(rs(i))(cs(i) + 1).toLong << 32 | hi(rs(i))(cs(i) + 1)
      i += 1
    }
    at(lvl) = j + 1 + rs.length
  }

  /** Stores the exhausted level's recorded bindings under its key, if they
    * fit in the memo; if not, the memo is full and stores nothing more.
    */
  private def store(lvl: Int): Unit = {
    val cost = 1L + at(lvl) / (partRel(lvl).length + 1)
    if (memoUsed + cost > memoCap) memoFull = true
    else {
      memo(lvl)(keyOf(lvl)) = java.util.Arrays.copyOf(recBuf(lvl), at(lvl))
      memoUsed += cost
      st.memoStored(lvl) += cost
    }
  }

  /** Moves the cursors of `lvl` forward to the least value they all hold and
    * binds it; false once a cursor leaves its range. Visits the cursors
    * round-robin: one at `vmax` agrees, any other seeks to it, and a landing
    * above raises `vmax` and restarts the count of agreeing cursors.
    */
  private def search(lvl: Int): Boolean = {
    val col = partVals(lvl); val dense = partDense(lvl); val p = pos(lvl); val e = end(lvl); val k = p.length
    var vmax = Long.MinValue
    var i = 0
    while (i < k) {
      if (p(i) >= e(i)) return false
      vmax = math.max(vmax, col(i)(p(i)))
      i += 1
    }
    var agree = 0
    i = 0
    while (agree < k) {
      val c = col(i)
      if (c(p(i)) != vmax) {
        val t = dense(i)
        p(i) = if (t == null) TrieRelation.gallop(c, p(i), e(i), vmax) else t.seekGE(0, p(i), e(i), vmax)
        if (p(i) >= e(i)) return false
        if (c(p(i)) != vmax) { vmax = c(p(i)); agree = 0 }
      }
      agree += 1
      i += 1
      if (i == k) i = 0
    }
    binding(lvl) = vmax
    true
  }

  /** Narrows every participant's range one level down to the run of the
    * bound value at its cursor, and moves the cursor past the run.
    */
  private def bind(lvl: Int): Unit = {
    val rs = partRel(lvl); val cs = partCol(lvl); val p = pos(lvl); val e = end(lvl)
    var i = 0
    while (i < p.length) {
      val r = rs(i); val d = cs(i)
      lo(r)(d + 1) = p(i)
      p(i) = rels(r).equalRangeEnd(d, p(i), e(i), binding(lvl))
      hi(r)(d + 1) = p(i)
      i += 1
    }
  }

  private def advance(): Unit = {
    while (level >= 0) {
      steps += 1
      if ((steps & 0xFFFFFL) == 0L && Thread.currentThread().isInterrupted)
        throw new RuntimeException("leapfrog interrupted (job cancelled)")
      if (nextBinding(level)) {
        st.extensions += 1
        st.levelCounts(level) += 1
        if (level == numLevels - 1) {
          nextRow = binding.clone()
          return
        }
        level += 1
        open(level)
      } else level -= 1
    }
    done = true
  }

  override def hasNext: Boolean = {
    if (!done && nextRow == null) advance()
    nextRow != null
  }

  override def next(): Array[Long] = {
    if (!hasNext) throw new NoSuchElementException
    mult = 1L
    var r = 0
    while (r < rels.length) { mult *= hi(r)(rels(r).arity) - lo(r)(rels(r).arity); r += 1 }
    val row = nextRow
    nextRow = null
    row
  }

  /** Bag multiplicity of the row `next` returned last: the product over the
    * relations of its run of duplicate tuples.
    */
  def multiplicity: Long = mult

  /** Drains the iterator, returning only the match count (for sampling). */
  def countAll(): Long = {
    var c = 0L
    while (hasNext) { next(); c += 1 }
    c
  }
}
