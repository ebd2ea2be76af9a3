package repro.core.lftj

import java.util.Comparator

/** A relation laid out for Leapfrog triejoin, column by column: its tuples
  * sorted lexicographically with columns ordered by the global attribute
  * order, then stored as one array per column. Every column is sorted within
  * any fixed-prefix range, so the columns *are* the trie (level-d children of
  * a prefix = the distinct values of column d in the prefix's row range).
  * Duplicate tuples are kept as adjacent runs, so a full-depth range's length
  * is the tuple's multiplicity.
  *
  * @param levels  the global attribute-order positions this relation binds,
  *                ascending; column d holds the attribute at global level
  *                `levels(d)`
  * @param cols    one array per column, each in the tuples' sorted order,
  *                duplicates included; the columns after the first
  *                `levels.length` are carried but not joined
  * @param size    the number of tuples, the length of every column
  */
final class TrieRelation private (
    val levels: Array[Int],
    val cols: Array[Array[Long]],
    val size: Int,
) {
  def arity: Int = levels.length

  /** The same tuples as a trie over their first `levels.length` columns: its
    * prefix is the projection onto them, with duplicates as runs.
    */
  def atLevels(levels: Array[Int]): TrieRelation = new TrieRelation(levels, cols, size)

  /** First row index in [from, hi) whose column `d` is >= v (the prefix
    * above column d must be constant over [from, hi)); see [[TrieRelation.gallop]].
    */
  def seekGE(d: Int, from: Int, hi: Int, v: Long): Int = TrieRelation.gallop(cols(d), from, hi, v)

  /** End (exclusive) of the run of rows with column `d` == v starting at
    * `from` within [from, hi): the first row above v, found by galloping.
    */
  def equalRangeEnd(d: Int, from: Int, hi: Int, v: Long): Int =
    if (v == Long.MaxValue) hi else TrieRelation.gallop(cols(d), from, hi, v + 1)
}

object TrieRelation {

  /** First index in [from, hi) of the column `c` whose value is >= v, or `hi`
    * if there is none; `c` must be sorted over [from, hi). Gallops from
    * `from`: probes `from`, then `from + 1, 2, 4, …` below `hi`, and
    * binary-searches the last bracket, so a seek costs log₂ of the distance
    * it moves. The one search primitive of the trie and of Leapfrog.
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

  /** Builds a trie relation.
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
    new TrieRelation(levels, cols, arr.length)
  }
}
