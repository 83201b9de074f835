package repro.exec

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._
import repro.core.Window

/** Window-instance assignment as Catalyst column expressions.
  *
  * A window `W⟨r, s⟩` has instances `[m·s, m·s + r)` for `m ≥ 0`. A
  * left-closed right-open span `[u, v)` (an event is the unit span
  * `[t, t+1)`; an upstream sub-aggregate is its interval) lies inside
  * instance `m` iff `m·s ≤ u` and `v ≤ m·s + r`, i.e.
  * `⌈(v − r)/s⌉ ≤ m ≤ ⌊u/s⌋` (and `m ≥ 0`). This is exactly the covering
  * set of Definition 2 restricted to the spans present in the data.
  *
  * Division is exact integer floor-division built from `pmod`, so negative
  * numerators (spans near the stream origin) round correctly and times past
  * 2⁵³ (e.g. nanoseconds) stay exact. `ForestEval` runs the same formula on
  * `Long`s.
  */
object WindowAssign {

  /** `⌊a / s⌋` for integer column `a` and positive literal `s`: `a − (a mod s)`
    * is a multiple of `s`, so the integral division `div` is exact.
    */
  def floorDiv(a: Column, s: Long): Column =
    call_function("div", a - pmod(a, lit(s)), lit(s))

  /** `⌈a / s⌉` for integer column `a` and positive literal `s`. */
  def ceilDiv(a: Column, s: Long): Column = floorDiv(a + (s - 1), s)

  /** Array of instance start times of `w` whose interval contains `[u, v)`;
    * empty when none does (e.g. a span straddling more than `r` units).
    */
  def instanceStarts(u: Column, v: Column, w: Window): Column = {
    val mLo = greatest(lit(0L), ceilDiv(v - w.r, w.s))
    val mHi = floorDiv(u, w.s)
    when(mHi >= mLo, transform(sequence(mLo, mHi), m => m * w.s))
      .otherwise(array().cast("array<bigint>"))
  }

  /** Instance starts containing the unit span of an event at time `t`. */
  def instanceStartsForEvent(t: Column, w: Window): Column =
    instanceStarts(t, t + 1, w)
}
