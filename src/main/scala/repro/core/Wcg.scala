package repro.core

/** Window Coverage Graph (§2.3): vertices are windows, and there is an edge
  * `(w2 → w1)` whenever `w1 ≼ w2` (w1 is covered/partitioned by w2), i.e.
  * the edge points in *dataflow* direction, from the finer window that
  * produces sub-aggregates to the coarser window that consumes them.
  *
  * Construction is `O(|W|²)` since the coverage test is constant time
  * (Theorems 1 and 4).
  *
  * @param windows   vertex set (no duplicates), in insertion order
  * @param semantics which relation edges honor ("covered by" for MIN/MAX,
  *                  "partitioned by" for SUM/COUNT/AVG)
  */
final case class Wcg(windows: Vector[Window], semantics: Semantics) {
  require(windows.distinct == windows, "window set must not contain duplicates")

  /** Upstream candidates of `w`: windows `u ≠ w` such that `w ≼ u` — i.e.
    * `w` may be computed from `u`'s sub-aggregates.
    */
  def parentsOf(w: Window): Vector[Window] =
    windows.filter(u => u != w && semantics.relates(w, u))

  /** Downstream windows of `u`: windows `w ≠ u` with `w ≼ u`. */
  def childrenOf(u: Window): Vector[Window] =
    windows.filter(w => w != u && semantics.relates(w, u))

  /** All edges `(from, to)` = (finer, coarser) in dataflow direction. */
  def edges: Vector[(Window, Window)] =
    for { u <- windows; w <- childrenOf(u) } yield (u, w)
}

object Wcg {
  /** Build the WCG for a window set under the semantics demanded by the
    * aggregate function `f` (footnote 5 of the paper).
    */
  def apply(windows: Seq[Window], semantics: Semantics): Wcg =
    new Wcg(windows.toVector, semantics)
}
