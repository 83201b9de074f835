package repro.stream

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{Window, WcgPlan}
import repro.exec.{AggSpec, Executor}

/** The paper's rewriting expressed in Structured Streaming, the declarative
  * streaming engine the repro targets: a chain in the min-cost WCG becomes a
  * chain of native time-window aggregations, where each downstream window
  * re-windows the *upstream window column* instead of the raw event time —
  * Spark ≥ 3.4's "multiple stateful operators" feature. This is the
  * engine-native equivalent of feeding sub-aggregates downstream
  * (Figure 2(b)); it needs no engine change, only a different query.
  *
  * Scope: tumbling hierarchies (each window's range a multiple of its
  * parent's — the "partitioned by" regime where chained re-windowing is
  * exact for every supported aggregate, and MIN/MAX a fortiori). The batch
  * `Executor` covers general hopping plans.
  *
  * Input: a streaming DataFrame with a timestamp column `ts`, key `k`,
  * value `v`. One unit of abstract window time = one second.
  */
object StreamingRewrite {

  /** Validate that the plan is a tumbling hierarchy. */
  private def requireTumblingChain(plan: WcgPlan): Unit = {
    require(plan.allWindows.forall(_.isTumbling),
      "streaming rewriting supports tumbling hierarchies; use the batch Executor otherwise")
    plan.allWindows.foreach { w =>
      plan.parent(w).foreach(p =>
        require(w.r % p.r == 0, s"$w not partitioned by parent $p"))
    }
  }

  /** Build one streaming DataFrame per *user* window along the min-cost
    * WCG: roots aggregate the raw stream with `window($"ts", r)`; children
    * re-aggregate their parent's window column with `window($"window", r)`.
    * Each frame has `Executor.finish`'s columns and types, those of every
    * plan. Returned frames are streaming and share their chains' prefixes.
    *
    * Each returned frame must run as its own query, on its own sink. Unioned
    * into one query, the shared prefixes are planned once per branch, and
    * under the default `spark.sql.exchange.reuse` a branch read through a
    * reused exchange gets an eviction watermark of 0 and never emits: a
    * union of the four frames of a MIN plan returned 63 of batch's 75 rows.
    *
    * @param watermarkDelay event-time watermark, e.g. "0 seconds"
    */
  def chains(events: DataFrame, plan: WcgPlan, agg: AggSpec,
             watermarkDelay: String = "0 seconds"): Map[Window, DataFrame] = {
    requireTumblingChain(plan)
    val marked = events.withWatermark("ts", watermarkDelay)
    val sub = scala.collection.mutable.Map.empty[Window, DataFrame]
    plan.topological.foreach { w =>
      val df = plan.parent(w) match {
        case None =>
          marked
            .select(col("k"), col("ts"), agg.lift(col("v")).as("st0"))
            .groupBy(col("k"), window(col("ts"), s"${w.r} seconds"))
            .agg(agg.merge(col("st0")).as("st"))
        case Some(p) =>
          sub(p)
            .groupBy(col("k"), window(col("window"), s"${w.r} seconds"))
            .agg(agg.merge(col("st")).as("st"))
      }
      sub(w) = df
    }
    plan.userWindows.map { w =>
      w -> Executor.finish(sub(w).withColumn("wstart", col("window.start").cast("long")), w, agg)
    }.toMap
  }
}
