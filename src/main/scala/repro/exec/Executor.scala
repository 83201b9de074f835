package repro.exec

import org.apache.spark.sql.{Column, DataFrame, Encoders}
import org.apache.spark.sql.functions._
import repro.core.{Window, WcgPlan}

/** Executes a multi-window aggregate query over an event DataFrame, either
  * as the *baseline* plan (every window computed independently from the raw
  * stream — Figure 1(b)) or as the *rewritten* hierarchical plan along a
  * min-cost WCG (Figure 2), where downstream windows consume the
  * sub-aggregates emitted by their upstream window.
  *
  * This is the query-rewriting layer of §3.3, built from public Spark
  * operators only, so no engine change is involved, as the paper claims.
  * The baseline is explode-based instance assignment + groupBy/agg per
  * window. The rewritten plan runs the whole forest behind one exchange on
  * `k`, in one `mapPartitions` pass of `ForestEval`, where each node's
  * sub-aggregates fan out to all its children: the `Multicast` operator.
  *
  * Input: events with integer event time `t` (in abstract time units ≥ 0),
  * grouping key `k` (the `DeviceID` of Figure 1) and value `v`; the
  * rewritten plan needs all three non-null.
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

  /** Rewritten plan: the whole min-cost WCG forest run per key in one
    * pass behind one exchange on `k` (right side of Figure 2(a)).
    *
    *  - The events are projected to `(k, t, v)` as long, long, double and
    *    hash-partitioned once on `k`, into the session's
    *    `spark.sql.shuffle.partitions` partitions.
    *  - Each partition runs `ForestEval`: every event is merged into the
    *    instances of the roots containing it, then each node's instance
    *    states fan out to its children level by level, the `Multicast` of
    *    §3.3. The user windows' rows come out in the `output` schema.
    *
    * The plan is one exchange and two stages whatever the forest's depth.
    * Every WCG node is aggregated exactly once; factor windows participate
    * but are not exposed. A partition's instance states stay in memory,
    * without spilling, until its rows are emitted: one per (node, key,
    * instance), as in the hash aggregation of a per-window plan.
    */
  def rewritten(events: DataFrame, plan: WcgPlan, agg: AggSpec): DataFrame = {
    require(plan.userWindows.nonEmpty, "empty window set")
    require(plan.semantics == agg.semantics,
      s"plan built for ${plan.semantics} but ${agg.name} needs ${agg.semantics}")
    val partitions = events.sparkSession.conf.get("spark.sql.shuffle.partitions").toInt
    events
      .select(col("k").cast("long"), col("t").cast("long"), col("v").cast("double"))
      .repartition(partitions, col("k"))
      .as(Encoders.tuple(Encoders.scalaLong, Encoders.scalaLong, Encoders.scalaDouble))
      .mapPartitions(ForestEval(plan, agg, _).rows)(Encoders.tuple(Encoders.scalaLong,
        Encoders.scalaLong, Encoders.scalaLong, Encoders.scalaLong, Encoders.scalaDouble))
      .toDF("w_r", "w_s", "k", "wstart", "value")
  }
}
