package repro.exec

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.{Window, WcgPlan}

/** Executes a multi-window aggregate query over an event DataFrame, either
  * as the *baseline* plan (every window computed independently from the raw
  * stream — Figure 1(b)) or as the *rewritten* hierarchical plan along a
  * min-cost WCG (Figure 2), where downstream windows consume the
  * sub-aggregates emitted by their upstream window.
  *
  * This is the query-rewriting layer of §3.3: both plans are compositions
  * of ordinary DataFrame operators (explode-based instance assignment +
  * groupBy/agg), so no engine change is involved — exactly the paper's
  * claim. The rewritten plan runs the whole forest behind one exchange on
  * `k`, then one explode and one aggregation per forest level; each node's
  * rows fan out to all its children, which is the batch form of the
  * `Multicast` operator.
  *
  * Input: events with integer event time `t` (in abstract time units ≥ 0),
  * grouping key `k` (the `DeviceID` of Figure 1) and value `v`.
  *
  * Output schema: `(w_r, w_s, k, wstart, value)` — one row per window per
  * key per instance that saw at least one event.
  */
object Executor {

  /** Sub-aggregate states of `w` computed directly from events:
    * `(k, wstart, st)`.
    */
  def subAggFromEvents(events: DataFrame, w: Window, agg: AggSpec): DataFrame =
    events
      .select(
        col("k"),
        explode(WindowAssign.instanceStartsForEvent(col("t"), w)).as("wstart"),
        agg.lift(col("v")).as("st0"))
      .groupBy(col("k"), col("wstart"))
      .agg(agg.merge(col("st0")).as("st"))

  /** Sub-aggregate states of `w` computed from the sub-aggregates of its
    * upstream window `upW` (the covering-set reduction of Observation 1):
    * each upstream interval `[u, u + upW.r)` feeds every instance of `w`
    * whose interval contains it.
    */
  def subAggFromUpstream(up: DataFrame, upW: Window, w: Window,
                         agg: AggSpec): DataFrame =
    up
      .select(
        col("k"),
        explode(WindowAssign.instanceStarts(col("wstart"), col("wstart") + upW.r, w))
          .as("wstart2"),
        col("st"))
      .groupBy(col("k"), col("wstart2").as("wstart"))
      .agg(agg.merge(col("st")).as("st"))

  /** The output schema `(w_r, w_s, k, wstart, value)` of a frame of
    * sub-aggregate states `st` per key `k` and instance start `wstart`:
    * the window's range and slide, the key, the instance start and the
    * finished value.
    */
  def output(df: DataFrame, agg: AggSpec, wr: Column, ws: Column): DataFrame =
    df.select(
      wr.as("w_r"),
      ws.as("w_s"),
      col("k"),
      col("wstart"),
      agg.finish(col("st")).cast("double").as("value"))

  /** Finalize a sub-aggregate DataFrame of `w` into the output schema. */
  def finish(df: DataFrame, w: Window, agg: AggSpec): DataFrame =
    output(df, agg, lit(w.r), lit(w.s))

  /** Baseline plan: every distinct window aggregated independently from the
    * raw events, results unioned (left side of Figure 2(a)). A repeated
    * window is computed once, as in every rewritten plan.
    */
  def baseline(events: DataFrame, windows: Seq[Window], agg: AggSpec): DataFrame = {
    require(windows.nonEmpty, "empty window set")
    windows.distinct
      .map(w => finish(subAggFromEvents(events, w, agg), w, agg))
      .reduce(_.unionAll(_))
  }

  /** Rewritten plan: the whole min-cost WCG forest behind one exchange on
    * `k`, evaluated level by level (right side of Figure 2(a)).
    *
    *  - The events are hash-partitioned once on `k`, into the session's
    *    `spark.sql.shuffle.partitions` partitions. That partitioning
    *    satisfies every later `groupBy(k, node, wstart)` and survives the
    *    explodes, projections and aggregations, so the plan is one linear
    *    chain with one exchange.
    *  - Level 0 explodes each event into its `(node, wstart)` instances of
    *    every root window at once and aggregates by `(k, node, wstart)`.
    *  - Level d explodes each row of level d − 1 into the instances of its
    *    children, and aggregates again. A user window also passes itself
    *    through unchanged, so the last level holds exactly the user
    *    windows; `node` then maps back to `(w_r, w_s)`.
    *
    * Every WCG node is aggregated exactly once and its sub-aggregates fan
    * out to all its children from the same rows: this is the `Multicast` of
    * §3.3. Factor windows participate but are not exposed.
    */
  def rewritten(events: DataFrame, plan: WcgPlan, agg: AggSpec): DataFrame = {
    require(plan.userWindows.nonEmpty, "empty window set")
    require(plan.semantics == agg.semantics,
      s"plan built for ${plan.semantics} but ${agg.name} needs ${agg.semantics}")
    val levels = plan.levels
    val id = levels.flatten.zipWithIndex.toMap
    val partitions = events.sparkSession.conf.get("spark.sql.shuffle.partitions").toInt

    def aggregate(df: DataFrame, instances: Column, st: Column): DataFrame =
      df.select(col("k"), inline(instances), st.as("st0"))
        .groupBy(col("k"), col("node"), col("wstart"))
        .agg(agg.merge(col("st0")).as("st"))

    val keyed = events
      .select(col("k"), col("t"), agg.lift(col("v")).as("st0"))
      .repartition(partitions, col("k"))
    val level0 = aggregate(keyed,
      concatInstances(plan.roots.map(w => nodeInstances(col("t"), col("t") + 1, w, id(w)))), col("st0"))

    val self = array(struct(col("node"), col("wstart")))
    val last = levels.init.foldLeft(level0) { (up, level) =>
      val parents = level.filter(plan.childrenOf(_).nonEmpty)
      val fanOut = byNode(id, parents.map { w =>
        val children = plan.childrenOf(w)
          .map(c => nodeInstances(col("wstart"), col("wstart") + w.r, c, id(c)))
        w -> concatInstances(if (plan.userWindows.contains(w)) children :+ self else children)
      })
      aggregate(up, fanOut.otherwise(self), col("st"))
    }

    output(last, agg,
      byNode(id, plan.userWindows.map(w => w -> lit(w.r))),
      byNode(id, plan.userWindows.map(w => w -> lit(w.s))))
  }

  /** `CASE node WHEN id(w) THEN value … END` over the `(w, value)` branches. */
  private def byNode(id: Map[Window, Int], branches: Seq[(Window, Column)]): Column =
    branches.tail.foldLeft(when(col("node") === id(branches.head._1), branches.head._2)) {
      case (c, (w, value)) => c.when(col("node") === id(w), value)
    }

  /** The instances of `w` whose interval contains `[u, v)`, each as a
    * `(node, wstart)` struct tagged with `w`'s node id.
    */
  private def nodeInstances(u: Column, v: Column, w: Window, node: Int): Column =
    WindowAssign.instances(u, v, w, "struct<node:int,wstart:bigint>")(
      wstart => struct(lit(node).as("node"), wstart.as("wstart")))

  private def concatInstances(arrays: Seq[Column]): Column =
    if (arrays.size == 1) arrays.head else concat(arrays: _*)
}
