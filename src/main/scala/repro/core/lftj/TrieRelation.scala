package repro.core.lftj

import java.util.Comparator

/** A relation laid out for Leapfrog triejoin, column by column: its tuples
  * sorted lexicographically with columns ordered by the global attribute
  * order, then stored as one array per column. Every column is sorted within
  * any fixed-prefix range, so the columns *are* the trie (level-d children of
  * a prefix = the distinct values of column d in the prefix's row range).
  * Duplicate tuples are kept as adjacent runs, so a full-depth range's length
  * is the tuple's multiplicity. Column 0, which Leapfrog reads over the whole
  * relation, may also carry dense offsets (EmptyHeaded's dense layout), so a
  * seek on it is one array read instead of a gallop across the relation.
  *
  * @param levels  the global attribute-order positions this relation binds,
  *                ascending; column d holds the attribute at global level
  *                `levels(d)`
  * @param cols    one array per column, each in the tuples' sorted order,
  *                duplicates included; the columns after the first
  *                `levels.length` are carried but not joined
  * @param size    the number of tuples, the length of every column
  * @param offsets the dense index of column 0, or null: `offsets(v - min0)`
  *                is the first row whose column-0 value is >= v, for v from
  *                column 0's least value min0 to its greatest max0 (for an
  *                edge relation, its CSR offsets)
  */
final class TrieRelation private (
    val levels: Array[Int],
    val cols: Array[Array[Long]],
    val size: Int,
    private[lftj] val offsets: Array[Int],
) {
  def arity: Int = levels.length

  private val min0 = if (offsets == null) 0L else cols(0)(0)
  private val max0 = if (offsets == null) 0L else cols(0)(size - 1)

  /** The same tuples as a trie over their first `levels.length` columns: its
    * prefix is the projection onto them, with duplicates as runs. Shares the
    * columns and the offsets.
    */
  def atLevels(levels: Array[Int]): TrieRelation = new TrieRelation(levels, cols, size, offsets)

  /** First row index in [from, hi) whose column `d` is >= v (the prefix
    * above column d must be constant over [from, hi)): one offsets read on
    * an indexed column 0, else [[TrieRelation.gallop]].
    */
  def seekGE(d: Int, from: Int, hi: Int, v: Long): Int =
    if (d == 0 && offsets != null) {
      val row = if (v <= min0) 0 else if (v > max0) size else offsets((v - min0).toInt)
      math.min(math.max(from, row), hi)
    } else TrieRelation.gallop(cols(d), from, hi, v)

  /** End (exclusive) of the run of rows with column `d` == v starting at
    * `from` within [from, hi): the first row above v.
    */
  def equalRangeEnd(d: Int, from: Int, hi: Int, v: Long): Int =
    if (v == Long.MaxValue) hi else seekGE(d, from, hi, v + 1)
}

object TrieRelation {

  /** First index in [from, hi) of the column `c` whose value is >= v, or `hi`
    * if there is none; `c` must be sorted over [from, hi). Gallops from
    * `from`: probes `from`, then `from + 1, 2, 4, …` below `hi`, and
    * binary-searches the last bracket, so a seek costs log₂ of the distance
    * it moves. The search of every column but an indexed column 0.
    */
  def gallop(c: Array[Long], from: Int, hi: Int, v: Long): Int = {
    if (from >= hi || c(from) >= v) return from
    // c(lo) < v, and h is hi or a row whose value is >= v.
    var lo = from; var step = 1
    while (step < hi - from && c(from + step) < v) { lo = from + step; step <<= 1 }
    var h = math.min(from + step, hi)
    lo += 1
    while (lo < h) {
      val mid = (lo + h) >>> 1
      if (c(mid) < v) lo = mid + 1 else h = mid
    }
    lo
  }

  /** Builds a trie relation. The rows are sorted as packed `Long` keys when
    * their columns' spans fit 63 bits together ([[packing]]), else as row
    * arrays with a comparator. Column 0 gets offsets when they take no more
    * memory than the column: when its span max0 − min0 + 1 is at most
    * 2 · size (an `Int` per value against a `Long` per row). Sparse keys,
    * such as 64-bit SQL values, have none, and their seeks gallop.
    *
    * @param attrIds  global attribute ids of the input tuples' columns
    * @param ordPos   global level of each attribute id (position in ord)
    * @param tuples   tuples with columns in `attrIds` order
    */
  def build(attrIds: Seq[Int], ordPos: Int => Int, tuples: Iterable[Array[Long]]): TrieRelation = {
    val perm   = attrIds.indices.sortBy(i => ordPos(attrIds(i))).toArray
    val levels = perm.map(i => ordPos(attrIds(i)))
    val k      = perm.length
    val n      = tuples.size
    val cols   = Array.ofDim[Long](k, n)
    val it     = tuples.iterator
    var j      = 0
    while (it.hasNext) {
      val t = it.next()
      var i = 0
      while (i < k) { cols(i)(j) = t(perm(i)); i += 1 }
      j += 1
    }
    packing(cols) match {
      case Some((mins, widths)) => sortPacked(cols, mins, widths)
      case None                 => sortRows(cols, n)
    }
    new TrieRelation(levels, cols, n, if (k == 0) null else denseOffsets(cols(0)))
  }

  /** Each column's least value and the bits its offsets `v − min` need, if
    * the bits sum to at most 63, so a row packs into one non-negative `Long`
    * whose order is the rows' lexicographic order; else None. None for no
    * rows.
    */
  private[lftj] def packing(cols: Array[Array[Long]]): Option[(Array[Long], Array[Int])] = {
    if (cols.isEmpty || cols(0).isEmpty) return None
    val mins   = new Array[Long](cols.length)
    val widths = new Array[Int](cols.length)
    var total  = 0
    var i      = 0
    while (i < cols.length) {
      val c = cols(i)
      var min = c(0); var max = c(0); var j = 1
      while (j < c.length) { val v = c(j); if (v < min) min = v; if (v > max) max = v; j += 1 }
      mins(i) = min
      // A span over Long.MaxValue wraps negative: 64 bits, so it never packs.
      widths(i) = 64 - java.lang.Long.numberOfLeadingZeros(max - min)
      total += widths(i)
      if (total > 63) return None
      i += 1
    }
    Some((mins, widths))
  }

  /** Sorts the rows of `cols` by packing each into a mixed-radix `Long` of
    * its columns' offsets `v − min`, column 0 highest, sorting the keys and
    * unpacking them. Equal rows pack to equal keys, so duplicates stay
    * adjacent runs.
    */
  private def sortPacked(cols: Array[Array[Long]], mins: Array[Long], widths: Array[Int]): Unit = {
    val k      = cols.length
    val n      = cols(0).length
    val shifts = new Array[Int](k)
    var i = k - 2
    while (i >= 0) { shifts(i) = shifts(i + 1) + widths(i + 1); i -= 1 }
    val keys = new Array[Long](n)
    i = 0
    while (i < k) {
      val c = cols(i); val min = mins(i); val sh = shifts(i)
      var j = 0
      while (j < n) { keys(j) |= (c(j) - min) << sh; j += 1 }
      i += 1
    }
    java.util.Arrays.sort(keys)
    i = 0
    while (i < k) {
      val c = cols(i); val min = mins(i); val sh = shifts(i); val mask = (1L << widths(i)) - 1
      var j = 0
      while (j < n) { c(j) = ((keys(j) >>> sh) & mask) + min; j += 1 }
      i += 1
    }
  }

  /** Sorts the rows of `cols` as row arrays with a lexicographic comparator:
    * the sort for rows that do not pack into a `Long`.
    */
  private def sortRows(cols: Array[Array[Long]], n: Int): Unit = {
    val k    = cols.length
    val rows = Array.tabulate(n)(j => Array.tabulate(k)(i => cols(i)(j)))
    val cmp: Comparator[Array[Long]] = (x: Array[Long], y: Array[Long]) => {
      var i = 0; var c = 0
      while (i < k && c == 0) { c = java.lang.Long.compare(x(i), y(i)); i += 1 }
      c
    }
    java.util.Arrays.sort(rows, cmp)
    var j = 0
    while (j < n) {
      var i = 0
      while (i < k) { cols(i)(j) = rows(j)(i); i += 1 }
      j += 1
    }
  }

  /** The offsets of a sorted column, or null if it is empty or its span is
    * over twice its length.
    */
  private def denseOffsets(c: Array[Long]): Array[Int] = {
    if (c.isEmpty) return null
    val min  = c(0)
    // Wraps to <= 0 when the span exceeds Long.MaxValue (to 0 for the whole
    // range of Long).
    val span = c(c.length - 1) - min + 1
    if (span <= 0 || span > 2L * c.length) return null
    val offsets = new Array[Int](span.toInt)
    var row = 0; var k = 0
    while (k < offsets.length) {
      while (c(row) < min + k) row += 1 // the last row holds the max
      offsets(k) = row
      k += 1
    }
    offsets
  }
}
