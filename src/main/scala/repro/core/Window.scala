package repro.core

/** A window `W⟨r, s⟩` with integer range `r` (duration) and slide `s` (gap
  * between consecutive firings), `0 < s ≤ r`, as in §2.1 of the paper.
  *
  * The interval representation (§2.1.1) is the sequence of left-closed,
  * right-open intervals `[m·s, m·s + r)` for integer `m ≥ 0`. A window with
  * `s = r` is a tumbling window; `s < r` is a hopping window.
  */
final case class Window(r: Long, s: Long) {
  require(s > 0 && r >= s, s"need 0 < s <= r, got r=$r s=$s")

  /** True iff this is a tumbling window (`s = r`). */
  def isTumbling: Boolean = r == s

  /** The `m`-th interval `[m·s, m·s + r)` of the interval representation. */
  def interval(m: Long): (Long, Long) = (m * s, m * s + r)

  /** Window coverage `this ≼ that` — *this* is covered by *that* (Def. 1):
    * every interval `[a,b)` of this window is the union of the intervals of
    * `that` falling inside `[a,b)`, anchored at both ends. Theorem 1 gives
    * the constant-time test: `s` is a multiple of `that.s` and `r − that.r`
    * is a multiple of `that.s` (with `r > that.r`; a window also covers
    * itself as a special case).
    */
  def coveredBy(that: Window): Boolean =
    (this == that) ||
      (r > that.r && s % that.s == 0 && (r - that.r) % that.s == 0)

  /** Window partitioning (Def. 5, Theorem 4): `this` is partitioned by
    * `that` iff `that.s` divides both `s` and `r`, and `that` is tumbling —
    * then every interval of `this` is tiled by *disjoint* intervals of
    * `that`. A window also partitions itself.
    */
  def partitionedBy(that: Window): Boolean =
    (this == that) ||
      (r > that.r && s % that.s == 0 && r % that.s == 0 && that.isTumbling)

  /** Covering multiplier `M(this, that)` (Theorem 3): the number of
    * intervals of `that` inside each interval of `this`, defined when
    * `this ≼ that`.
    */
  def multiplier(that: Window): Long = {
    require(this.coveredBy(that), s"$this not covered by $that")
    1 + (r - that.r) / that.s
  }

  override def toString: String = s"W($r,$s)"
}

object Window {
  /** A tumbling window `W⟨r, r⟩`. */
  def tumbling(r: Long): Window = Window(r, r)

  /** The virtual root `S⟨1,1⟩` of the augmented WCG (§4.1): a tumbling
    * window of atomic intervals that covers every window.
    */
  val virtualRoot: Window = Window(1, 1)
}

/** Which overlap relation the WCG honors, as dictated by the aggregate
  * function (§3.1, footnote 5): MIN/MAX stay distributive over overlapping
  * partitions (Theorem 6) and may use the general "covered by" relation;
  * SUM/COUNT/AVG require disjoint partitions and use "partitioned by".
  */
sealed trait Semantics {
  /** True iff `w1` can be computed from sub-aggregates of `w2` under this
    * relation (i.e. `w1 ≼ w2` in the appropriate sense).
    */
  def relates(w1: Window, w2: Window): Boolean
}

object Semantics {
  case object CoveredBy extends Semantics {
    def relates(w1: Window, w2: Window): Boolean = w1.coveredBy(w2)
  }
  case object PartitionedBy extends Semantics {
    def relates(w1: Window, w2: Window): Boolean = w1.partitionedBy(w2)
  }
}
