package repro.perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import repro.core.{CostModel, Window}
import repro.exec.Executor
import scala.collection.mutable

/** One WCG node of one plan: rows entering its aggregation as measured and
  * as the cost model predicts them, and its self time.
  */
final case class NodeRow(plan: String, node: Window, parent: Option[Window], rowsIn: Long,
                         modelRows: Double, seconds: Double)

/** The model-vs-measured table of a batch workload. Every node of every
  * plan runs alone on its own, with its parent's sub-aggregates persisted
  * first, so its time is its self time and the rows its explode produces
  * are its own.
  *
  * The model predicts, per hyper-period R (§3.2.1, Observation 1),
  * `n_i·η·r_i` rows for a window fed by the events and `n_i·M(W_i, P)`
  * sub-aggregates for one fed by parent P. Scaled to the run: η is the
  * measured events per time unit, the horizon H holds H/R periods, and
  * sub-aggregates are per key, so the second form is multiplied by the
  * number of keys.
  */
final class NodeTable(ctx: Ctx, spec: BatchSpec, st: BatchState) {
  def measure(): Seq[NodeRow] = {
    val rows = BatchWorkload.Plans.flatMap(p => measurePlan(p))
    val h = spec.horizon.toDouble
    ctx.say(s"model-vs-measured ${spec.name}: rows entering each aggregation, " +
      s"base: events=${spec.rows} H=$h ${spec.unit} R=${st.plans("wcgfw").bigR} " +
      s"eta=${spec.rows / h}/${spec.unit} keys=${spec.keys}")
    ctx.say(f"${"plan"}%-6s ${"node"}%-16s ${"parent"}%-16s ${"rows_in"}%12s ${"model_rows"}%14s ${"ratio"}%7s ${"node_s"}%8s")
    rows.foreach { r =>
      ctx.say(f"${r.plan}%-6s ${r.node.toString}%-16s ${r.parent.fold("events")(_.toString)}%-16s " +
        f"${r.rowsIn}%12d ${r.modelRows}%14.0f ${r.rowsIn / r.modelRows}%7.3f ${r.seconds}%8.3f")
    }
    rows
  }

  private def measurePlan(p: String): Seq[NodeRow] = {
    val plan = st.plans(p)
    val bigR = plan.bigR.toDouble
    val periods = spec.horizon / bigR
    val persisted = mutable.Map.empty[Window, DataFrame]
    try plan.topological.map { w =>
      val parent = plan.parent(w)
      val df = ctx.tracer.span("exec.subAgg")(parent match {
        case None    => Executor.subAggFromEvents(st.events, w, spec.agg)
        case Some(u) => Executor.subAggFromUpstream(persisted(u), u, w, spec.agg)
      })
      val seconds = Timing.seconds(ctx.tracer.span("exec.collect")(df.collect()))._2
      val rowsIn = PlanProbe.explodedRows(PlanProbe.finalPlan(df))
      val n = CostModel.recurrenceCount(w, plan.bigR).toDouble
      val model = parent match {
        case None    => n * w.r * spec.rows / bigR
        case Some(u) => n * w.multiplier(u) * periods * spec.keys
      }
      if (plan.childrenOf(w).nonEmpty) {
        df.persist(StorageLevel.MEMORY_ONLY).count()
        persisted(w) = df
      }
      NodeRow(p, w, parent, rowsIn, model, seconds)
    } finally persisted.values.foreach(_.unpersist(blocking = true))
  }
}
