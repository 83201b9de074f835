package repro.slicing

import repro.core.Window
import repro.exec.AggSpec

/** Executable window slicing over an in-memory event list — the
  * partial-aggregate / final-aggregate data path that the Table 1 cost
  * model prices. Small-scale and single-threaded by design: it exists so
  * tests can prove the slice-edge sets are *correct* (window instances
  * align with slice boundaries and recombine to the exact window results of
  * `repro.exec.ForestEval` run on a forest without edges), which grounds the
  * analytic slicing costs used in the evaluation. The production-scale data
  * path of this reproduction is `repro.exec.Executor`.
  */
object SliceExec {

  /** Partial aggregates per slice: slice starts are the edge positions; an
    * event at time `t` lands in the slice starting at the greatest edge
    * `≤ t`. Returns sliceStart → state.
    */
  def slicePartials(events: Seq[(Long, Double)], edges: Vector[Long],
                    agg: AggSpec): Map[Long, AggSpec.State] = {
    require(edges.nonEmpty && edges.head == 0, "edges must start at 0")
    val arr = edges.toArray
    def sliceOf(t: Long): Long = {
      var lo = 0; var hi = arr.length - 1
      while (lo < hi) {
        val mid = (lo + hi + 1) >>> 1
        if (arr(mid) <= t) lo = mid else hi = mid - 1
      }
      arr(lo)
    }
    events.groupBy { case (t, _) => sliceOf(t) }
      .map { case (s, evs) =>
        s -> evs.map(e => agg.lift(e._2)).reduce(agg.merge(_, _))
      }
  }

  /** Final aggregate of window `w` from slice partials: instance `[a, b)`
    * combines the slices whose span lies inside it. Requires `a` and `b` to
    * be edge positions (the alignment property of paned/paired slicing).
    * Returns wstart → finished value, for instances with ≥ 1 event.
    */
  def windowFromSlices(w: Window, edges: Vector[Long],
                       partials: Map[Long, AggSpec.State], horizon: Long,
                       agg: AggSpec): Map[Long, Double] = {
    val edgeSet = edges.toSet
    w.intervalsWithin(horizon).flatMap { case (a, b) =>
      require(edgeSet.contains(a) && edgeSet.contains(b),
        s"window $w instance [$a,$b) not aligned to slice edges")
      val states = edges.filter(e => e >= a && e < b).flatMap(partials.get)
      Option.when(states.nonEmpty)(a -> agg.finish(states.reduce(agg.merge(_, _))))
    }.toMap
  }
}
