package repro.core.lftj

import java.util.Comparator

/** A relation laid out for Leapfrog triejoin: tuples sorted lexicographically
  * with columns ordered by the global attribute order, so every column is
  * sorted within any fixed-prefix range and the sorted array *is* the trie
  * (level-d children of a prefix = the distinct values of column d in the
  * prefix's row range). Duplicate tuples are kept as adjacent runs, so a
  * full-depth range's length is the tuple's multiplicity.
  *
  * @param levels  the global attribute-order positions this relation binds,
  *                ascending; column d of `rows` holds the attribute at
  *                global level `levels(d)`
  * @param rows    lexicographically sorted tuples, duplicates included; the
  *                columns after the first `levels.length` are carried but
  *                not joined
  */
final class TrieRelation private (
    val levels: Array[Int],
    val rows: Array[Array[Long]],
) {
  def arity: Int = levels.length
  def size: Int  = rows.length

  /** The same rows as a trie over their first `levels.length` columns: its
    * prefix is the projection onto them, with duplicates as runs.
    */
  def atLevels(levels: Array[Int]): TrieRelation = new TrieRelation(levels, rows)

  /** First row index in [from, hi) whose column `d` is >= v (the prefix
    * above column d must be constant over [from, hi)).
    */
  def seekGE(d: Int, from: Int, hi: Int, v: Long): Int = {
    var lo = from; var h = hi
    while (lo < h) {
      val mid = (lo + h) >>> 1
      if (rows(mid)(d) < v) lo = mid + 1 else h = mid
    }
    lo
  }

  /** End (exclusive) of the run of rows with column `d` == v starting at
    * `from` within [from, hi).
    */
  def equalRangeEnd(d: Int, from: Int, hi: Int, v: Long): Int = {
    var lo = from; var h = hi
    while (lo < h) {
      val mid = (lo + h) >>> 1
      if (rows(mid)(d) <= v) lo = mid + 1 else h = mid
    }
    lo
  }
}

object TrieRelation {

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
    new TrieRelation(levels, arr)
  }
}
