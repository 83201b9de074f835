package repro.exec

import repro.core.{Window, WcgPlan}
import scala.collection.mutable

/** The rewritten plan of §3.3 run in memory over one partition's events,
  * with `AggSpec`'s scalar form: the pure-Scala body of
  * `Executor.rewritten`.
  *
  *  - Each event `(k, t, v)` is merged into the instances of every root
  *    window that contain it.
  *  - Then, in `plan.levels` order, each node's instance states fan out to
  *    the instances of its children whose interval covers theirs. This is
  *    the `Multicast` of §3.3 as plain code.
  *
  * A span `[u, v)` (an event is `[t, t + 1)`, a sub-aggregate its interval)
  * lies in instance `m` of `W⟨r, s⟩` iff `⌈(v − r)/s⌉ ≤ m ≤ ⌊u/s⌋` and
  * `m ≥ 0`, the formula of `WindowAssign`, here in exact `Long` arithmetic.
  *
  * Every instance state stays in memory until the run ends: one per
  * (node, key, instance) that saw an item.
  */
object ForestEval {

  /** One output row `(w_r, w_s, k, wstart, value)`, the layout of
    * `Executor.output`.
    */
  type Row = (Long, Long, Long, Long, Double)

  /** An instance's sub-aggregate state and the number of items (events for
    * a root, parent sub-aggregates for a child) merged into it.
    */
  private final class Instance(var st: AggSpec.State, var items: Long)

  /** The instances of every node after a run: per key, per node in
    * `plan.topological` order, instance start → instance.
    */
  final class Result private[ForestEval] (
      plan: WcgPlan, agg: AggSpec, nodes: Vector[Window],
      stores: mutable.LongMap[Array[mutable.LongMap[Instance]]]) {

    /** The user windows' rows, one per key per instance that saw an event. */
    def rows: Iterator[Row] = {
      val user = plan.userWindows.map(w => (w, nodes.indexOf(w)))
      stores.iterator.flatMap { case (k, perNode) =>
        user.iterator.flatMap { case (w, i) =>
          perNode(i).iterator.map { case (a, inst) => (w.r, w.s, k, a, agg.finish(inst.st)) }
        }
      }
    }

    /** Items merged into each instance of `w`, by instance start, summed
      * over keys.
      */
    def merged(w: Window): Map[Long, Long] = {
      val i = nodes.indexOf(w)
      stores.values.flatMap(_(i)).groupMapReduce(_._1)(_._2.items)(_ + _)
    }
  }

  /** Run `plan` over `events`, given as `(k, t, v)`, for aggregate `agg`. */
  def apply(plan: WcgPlan, agg: AggSpec, events: Iterator[(Long, Long, Double)]): Result = {
    val nodes = plan.topological
    val roots = plan.roots.map(nodes.indexOf).toArray
    val children = nodes.map(w => plan.childrenOf(w).map(nodes.indexOf).toArray).toArray
    val stores = mutable.LongMap.empty[Array[mutable.LongMap[Instance]]]

    def merge(store: mutable.LongMap[Instance], a: Long, st: AggSpec.State): Unit = {
      val inst = store.getOrNull(a)
      if (inst == null) store.update(a, new Instance(st, 1))
      else { inst.st = agg.merge(inst.st, st); inst.items += 1 }
    }

    /** Merge `st`, the state of span `[u, v)`, into every instance of node
      * `i` that contains the span.
      */
    def mergeSpan(perNode: Array[mutable.LongMap[Instance]], i: Int, u: Long, v: Long,
                  st: AggSpec.State): Unit = {
      val w = nodes(i)
      var m = math.max(0L, -Math.floorDiv(w.r - v, w.s))
      val mHi = Math.floorDiv(u, w.s)
      while (m <= mHi) { merge(perNode(i), m * w.s, st); m += 1 }
    }

    events.foreach { case (k, t, v) =>
      val perNode = stores.getOrElseUpdate(k, Array.fill(nodes.size)(mutable.LongMap.empty))
      val st = agg.lift(v)
      roots.foreach(mergeSpan(perNode, _, t, t + 1, st))
    }
    stores.values.foreach { perNode =>
      nodes.indices.foreach { i =>
        if (children(i).nonEmpty) perNode(i).foreach { case (a, inst) =>
          children(i).foreach(mergeSpan(perNode, _, a, a + nodes(i).r, inst.st))
        }
      }
    }
    new Result(plan, agg, nodes, stores)
  }
}
