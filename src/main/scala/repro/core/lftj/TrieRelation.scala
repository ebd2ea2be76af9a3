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

  /** Builds a trie relation. Column 0 gets offsets when they take no more
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
    val arr    = tuples.iterator.map { t =>
      val r = new Array[Long](k)
      var i = 0
      while (i < k) { r(i) = t(perm(i)); i += 1 }
      r
    }.toArray
    val cmp: Comparator[Array[Long]] = (x: Array[Long], y: Array[Long]) => {
      var i = 0; var c = 0
      while (i < k && c == 0) { c = java.lang.Long.compare(x(i), y(i)); i += 1 }
      c
    }
    java.util.Arrays.sort(arr, cmp)
    val cols = Array.ofDim[Long](k, arr.length)
    var j = 0
    while (j < arr.length) {
      var i = 0
      while (i < k) { cols(i)(j) = arr(j)(i); i += 1 }
      j += 1
    }
    new TrieRelation(levels, cols, arr.length, if (k == 0) null else denseOffsets(cols(0)))
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
