package repro.exec

import repro.core.{NumberTheory, Window, WcgPlan}
import scala.collection.mutable

/** The rewritten plan of §3.3 run in memory, with `AggSpec`'s scalar form:
  * the pure-Scala body of `Executor.rewritten`, in two halves.
  *
  *  - Map side, `panes`: the events of one input partition are merged, per
  *    key, into panes `[p, p + g)` of length `g = paneLength(plan)` (Li et
  *    al., "No pane, no gain", SIGMOD Record 2005). Every root instance is a
  *    union of whole panes, so merging pane states is exact under both
  *    semantics; each event falls into exactly one pane, so there are never
  *    more panes than events.
  *  - Reduce side, `fromPanes`: each pane is merged into the instances of
  *    every root window that contain it. Then, in `plan.levels` order, each
  *    node's instance states fan out to the instances of its children whose
  *    interval covers theirs. This is the `Multicast` of §3.3 as plain code.
  *
  * A span `[u, v)` (a pane, or a sub-aggregate's interval) lies in instance
  * `m` of `W⟨r, s⟩` iff `⌈(v − r)/s⌉ ≤ m ≤ ⌊u/s⌋` and `m ≥ 0`, the formula
  * of `WindowAssign`, here in exact `Long` arithmetic.
  *
  * Every instance state stays in memory until the run ends: one per
  * (node, key, instance) that saw an item.
  */
object ForestEval {

  /** One output row `(w_r, w_s, k, wstart, value)`, the layout of
    * `Executor.finish`.
    */
  type Row = (Long, Long, Long, Long, Double)

  /** One key's panes of `length` time units from one input partition, as
    * parallel arrays: the pane's start and its state's value and count.
    * The count is the number of events merged into the pane, since every
    * event lifts to a state of count 1.
    */
  final class Panes(val length: Long, val start: Array[Long], val value: Array[Double],
                    val count: Array[Long]) extends Serializable

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

  /** The pane length of `plan`: the gcd of its roots' ranges and slides, so
    * that every root instance is a union of whole panes.
    */
  def paneLength(plan: WcgPlan): Long = {
    require(plan.roots.nonEmpty, "empty window set")
    NumberTheory.gcdAll(plan.roots.flatMap(w => Seq(BigInt(w.r), BigInt(w.s)))).toLong
  }

  /** Events given as `(k, t, v)`, merged per key into panes of length `g`:
    * one `Panes` per key.
    */
  def panes(g: Long, agg: AggSpec, events: Iterator[(Long, Long, Double)]): Iterator[(Long, Panes)] = {
    val byKey = mutable.LongMap.empty[mutable.LongMap[AggSpec.State]]
    events.foreach { case (k, t, v) =>
      val perKey = byKey.getOrElseUpdate(k, mutable.LongMap.empty)
      val p = Math.floorDiv(t, g) * g
      val st = perKey.getOrNull(p)
      perKey.update(p, if (st == null) agg.lift(v) else agg.merge(st, agg.lift(v)))
    }
    byKey.iterator.map { case (k, perKey) =>
      val (start, st) = perKey.toArray.unzip
      k -> new Panes(g, start, st.map(_._1), st.map(_._2))
    }
  }

  /** Run `plan` over `events`, given as `(k, t, v)`, for aggregate `agg`:
    * every event is its own pane of one time unit.
    */
  def apply(plan: WcgPlan, agg: AggSpec, events: Iterator[(Long, Long, Double)]): Result =
    fromPanes(plan, agg, panes(1, agg, events))

  /** Run `plan` over keyed panes for aggregate `agg`. A key may come in
    * several `Panes` (one per input partition); their states merge. Every
    * pane length must divide `paneLength(plan)`.
    */
  def fromPanes(plan: WcgPlan, agg: AggSpec, keyed: Iterator[(Long, Panes)]): Result = {
    val nodes = plan.topological
    val roots = plan.roots.map(nodes.indexOf).toArray
    val children = nodes.map(w => plan.childrenOf(w).map(nodes.indexOf).toArray).toArray
    val stores = mutable.LongMap.empty[Array[mutable.LongMap[Instance]]]
    val g = paneLength(plan)

    def merge(store: mutable.LongMap[Instance], a: Long, st: AggSpec.State, items: Long): Unit = {
      val inst = store.getOrNull(a)
      if (inst == null) store.update(a, new Instance(st, items))
      else { inst.st = agg.merge(inst.st, st); inst.items += items }
    }

    /** Merge `st`, the state of span `[u, v)` made of `items` items, into
      * every instance of node `i` that contains the span.
      */
    def mergeSpan(perNode: Array[mutable.LongMap[Instance]], i: Int, u: Long, v: Long,
                  st: AggSpec.State, items: Long): Unit = {
      val w = nodes(i)
      var m = math.max(0L, -Math.floorDiv(w.r - v, w.s))
      val mHi = Math.floorDiv(u, w.s)
      while (m <= mHi) { merge(perNode(i), m * w.s, st, items); m += 1 }
    }

    keyed.foreach { case (k, ps) =>
      require(g % ps.length == 0, s"panes of length ${ps.length} straddle root instances of ${plan.roots}")
      val perNode = stores.getOrElseUpdate(k, Array.fill(nodes.size)(mutable.LongMap.empty))
      ps.start.indices.foreach { j =>
        val (p, st) = (ps.start(j), (ps.value(j), ps.count(j)))
        roots.foreach(mergeSpan(perNode, _, p, p + ps.length, st, ps.count(j)))
      }
    }
    stores.values.foreach { perNode =>
      nodes.indices.foreach { i =>
        if (children(i).nonEmpty) perNode(i).foreach { case (a, inst) =>
          children(i).foreach(mergeSpan(perNode, _, a, a + nodes(i).r, inst.st, 1))
        }
      }
    }
    new Result(plan, agg, nodes, stores)
  }
}
