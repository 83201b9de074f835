package repro.perfbench

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.storage.StorageLevel
import repro.SynthData
import repro.core._
import repro.exec.{AggSpec, Executor}
import scala.collection.mutable

/** A batch workload: one window set and aggregate over a persisted
  * synthetic event table of `rows` events on `[0, horizon)` with `keys`
  * keys. `unit` names what one unit of event time stands for. `traced`
  * measures one more layer at the end of a traced run.
  */
final case class BatchSpec(name: String, windows: Seq[Window], agg: AggSpec, rows: Long,
                           horizon: Long, keys: Long, unit: String, traced: Ctx => Unit) {
  /** The planner's integral event rate, as `RuntimeHarness` derives it. */
  def eta: BigInt = BigInt(math.max(1L, rows / horizon))
}

/** The workloads, batch-tumbling and batch-hopping: BL and WCG-FW (and,
  * traced, WCG) timed against each other on the same persisted input,
  * every result checked against the BL result computed during set-up.
  */
object BatchWorkload {
  val Plans: Seq[String] = Seq("bl", "wcg", "wcgfw")
  /** The plans an untraced run times: what the end-to-end metrics need.
    * A traced run times all three.
    */
  val Timed: Seq[String] = Seq("bl", "wcgfw")
  /** Untimed rotations of the timed plans in each set-up round. Spark's
    * driver-side code (planning, adaptive execution, scheduling) takes about
    * a dozen queries per plan to reach a steady speed under the JIT; three
    * set-up rounds of three rotations get it most of the way there.
    */
  def warmupRotations(tiny: Boolean): Int = if (tiny) 1 else 3

  /** Example 7 with SUM, event time in seconds and the four devices of
    * Figure 1: about 125 events reach each key in each W(10,10) instance,
    * so the factor window's sub-aggregates do reduce the rows. Each event
    * falls into one instance per window, so a gain can only come from that
    * upstream reduction (Algorithms 3 and 4). Its traced run also measures
    * the streaming layer on the same windows.
    */
  def tumbling(tiny: Boolean): BatchSpec =
    BatchSpec("batch-tumbling", Seq(20L, 30L, 40L).map(Window.tumbling), AggSpec.Sum,
      rows = if (tiny) 20000 else 100000, horizon = if (tiny) 1200 else 2000,
      keys = 4, unit = "s", traced = StreamProbe.measure)

  /** A hopping set in milliseconds with MIN and hundreds of keys: BL
    * explodes each event into 4 + 4 + 3 instance rows, and the covered-by
    * path of Algorithm 2 enumerates candidates over millisecond slides. Its
    * traced run also runs the planner sweep.
    */
  def hopping(tiny: Boolean): BatchSpec =
    BatchSpec("batch-hopping",
      Seq(Window(40000, 10000), Window(80000, 20000), Window(120000, 40000)), AggSpec.Min,
      rows = if (tiny) 20000 else 100000, horizon = if (tiny) 480000 else 800000,
      keys = if (tiny) 20 else 200, unit = "ms", traced = PlannerSweep.measure)

  type Keyed = Map[(Long, Long, Long, Long), Double]

  /** Rows of the `(w_r, w_s, k, wstart, value)` output schema, keyed. */
  def keyed(rows: Array[Row]): Keyed =
    rows.iterator.map(r => (r.getLong(0), r.getLong(1), r.getLong(2), r.getLong(3)) -> r.getDouble(4)).toMap

  /** None when `got` equals `want` row for row, values within a relative
    * tolerance (hierarchical plans associate float additions differently).
    */
  def mismatch(got: Keyed, want: Keyed, tolerance: Double): Option[String] =
    if (got.size != want.size) Some(s"${got.size} result rows, expected ${want.size}")
    else got.collectFirst {
      case (k, v) if !want.get(k).exists(w => math.abs(v - w) <= tolerance * math.max(1.0, math.abs(w))) =>
        s"wrong value at (w_r, w_s, k, wstart) = $k"
    }

  /** The BL plan as a forest: every window computed from the events. */
  def baselinePlan(windows: Seq[Window], semantics: Semantics, eta: BigInt): WcgPlan = {
    val ws = windows.toVector
    WcgPlan(ws, Vector.empty, ws.map(_ -> Option.empty[Window]).toMap, semantics, eta,
      CostModel.hyperPeriod(ws))
  }

  def run(ctx: Ctx, spec: BatchSpec): Unit = new BatchRun(ctx, spec).run()
}

/** The state one set-up round leaves behind. */
private final case class BatchState(events: DataFrame, reference: BatchWorkload.Keyed,
                                    plans: Map[String, WcgPlan])

private final class BatchRun(ctx: Ctx, spec: BatchSpec) {
  import BatchWorkload._

  private val tracer = ctx.tracer
  private val timedPlans = if (ctx.settings.trace) Plans else Timed
  private val tolerance = if (spec.agg == AggSpec.Min || spec.agg == AggSpec.Max) 0.0 else 1e-9
  private val planMs = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
  private val setupParts = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
  private var corruptPending = ctx.settings.corrupt

  private def note(into: mutable.Map[String, mutable.ArrayBuffer[Double]], key: String, v: Double): Unit =
    into.getOrElseUpdate(key, mutable.ArrayBuffer.empty) += v

  /** Plan (timed into `planMs`) and build the DataFrame of one operation. */
  private def query(events: DataFrame, plan: String): DataFrame = plan match {
    case "bl" =>
      tracer.span("exec.baseline")(Executor.baseline(events, spec.windows, spec.agg))
    case _ =>
      val (p, t) = Timing.seconds(plan match {
        case "wcg" => tracer.span("core.minCostPlan")(
          CostModel.minCostPlan(spec.windows, spec.agg.semantics, spec.eta))
        case _ => tracer.span("core.minCostPlanWithFactors")(
          FactorWindows.minCostPlanWithFactors(spec.windows, spec.agg.semantics, spec.eta))
      })
      note(planMs, plan, t * 1000)
      // Default arguments on purpose: persistShared = true needs
      // Executor.unpersistAll afterwards, which clears every cache of the
      // session, including the persisted input this benchmark times against.
      tracer.span("exec.rewritten")(Executor.rewritten(events, p, spec.agg))
  }

  /** One operation: plan, build and collect the complete result. */
  private def operation(events: DataFrame, plan: String): (DataFrame, Array[Row]) = {
    val df = query(events, plan)
    (df, tracer.span("exec.collect")(df.collect()))
  }

  private def setupRound(round: Int): BatchState = {
    val spark = Timing.seconds(ctx.freshSpark())._2
    note(setupParts, "session", spark)
    val ((events, reference), gen) = Timing.seconds {
      val ev = tracer.span("gen.SynthData.events")(
        SynthData.events(ctx.spark, spec.rows, spec.horizon, spec.keys, ctx.settings.seed))
        .persist(StorageLevel.MEMORY_ONLY)
      ev.count()
      (ev, keyed(operation(ev, "bl")._2))
    }
    note(setupParts, "gen", gen)
    val plans = Map(
      "bl" -> baselinePlan(spec.windows, spec.agg.semantics, spec.eta),
      "wcg" -> tracer.span("core.minCostPlan")(
        CostModel.minCostPlan(spec.windows, spec.agg.semantics, spec.eta)),
      "wcgfw" -> tracer.span("core.minCostPlanWithFactors")(
        FactorWindows.minCostPlanWithFactors(spec.windows, spec.agg.semantics, spec.eta)))
    val warm = Timing.seconds((0 until warmupRotations(ctx.settings.tiny)).foreach(i =>
      Timing.rotate(timedPlans, round + i).foreach(p => operation(events, p))))._2
    note(setupParts, "warmup", warm)
    planMs.clear()
    BatchState(events, reference, plans)
  }

  /** Per plan: wall seconds of each timed operation, and the DataFrame of
    * the last one (whose executed plan the traced run inspects); per round
    * in which both succeeded: BL time / WCG-FW time.
    */
  private final class Samples {
    val walls: Map[String, mutable.ArrayBuffer[Double]] =
      timedPlans.map(_ -> mutable.ArrayBuffer.empty[Double]).toMap
    val last = mutable.Map.empty[String, DataFrame]
    val speedups = mutable.ArrayBuffer.empty[Double]
  }

  /** Time rotations of the plans for `budget` seconds. With `alternate`,
    * every second rotation is traced: spans on, jobs tagged for the task
    * probe. Interleaving keeps JIT warm-up from favouring either half.
    * Returns the untraced and the traced samples.
    */
  private def timed(st: BatchState, budget: Double, alternate: Boolean): (Samples, Samples) = {
    val (plain, spanned) = (new Samples, new Samples)
    Timing.loopFor(budget, minRounds = if (alternate) 2 else 1) { round =>
      val traced = alternate && round % 2 == 1
      val out = if (traced) spanned else plain
      tracer.on = traced
      val roundWalls = mutable.Map.empty[String, Double]
      Timing.rotate(timedPlans, if (alternate) round / 2 else round).foreach { plan =>
        if (st.events.storageLevel == StorageLevel.NONE) {
          ctx.outcomes.fail("persisted input no longer cached")
          st.events.persist(StorageLevel.MEMORY_ONLY).count()
        } else {
          val tag = if (traced) Some(plan) else None
          val attempt = scala.util.Try(TaskProbe.tagged(ctx.spark, tag)(
            Timing.seconds(operation(st.events, plan))))
          attempt.fold(
            e => ctx.outcomes.fail(s"$plan threw ${e.getClass.getSimpleName}: ${e.getMessage}"),
            { case ((df, rows), wall) =>
              out.walls(plan) += wall
              out.last(plan) = df
              roundWalls(plan) = wall
              var got = keyed(rows)
              if (corruptPending && plan == "wcgfw") {
                corruptPending = false
                got = got.updated(got.head._1, got.head._2 + 1.0)
              }
              ctx.outcomes.record(mismatch(got, st.reference, tolerance).map(m => s"$plan: $m"))
            })
        }
      }
      for (bl <- roundWalls.get("bl"); fw <- roundWalls.get("wcgfw")) out.speedups += bl / fw
    }
    tracer.on = false
    (plain, spanned)
  }

  def run(): Unit = {
    val s = ctx.settings
    val (st, setupS) = Timing.setupRounds(3)(setupRound)
    val e2e = ctx.endToEnd
    e2e.put("setup_s", setupS, "s")
    ctx.taskProbe.foreach(_.resetPeak())
    val (untraced, traced) = timed(st, s.seconds, alternate = s.trace)
    val model = st.plans.view.mapValues(_.totalCost).toMap
    if (timedPlans.exists(p => untraced.walls(p).isEmpty))
      throw new IllegalStateException(s"no successful operation of some plan: ${ctx.outcomes.summary}")
    e2e.put("fw_speedup", Stats.median(untraced.speedups.toSeq), "x")
    e2e.put("fw_cost_ratio", (BigDecimal(model("wcgfw")) / BigDecimal(model("bl"))).toDouble, "ratio")
    if (s.trace) perLayer(st, untraced, traced, model)
  }

  private def perLayer(st: BatchState, untraced: Samples, tr: Samples,
                       model: Map[String, BigInt]): Unit = {
    val probe = ctx.taskProbe.get
    probe.drain()
    tracer.on = true
    val pl = ctx.perLayer
    def med(x: Samples, p: String) = Stats.median(x.walls(p).toSeq)

    Seq("session", "gen", "warmup").foreach(k =>
      pl.put(s"setup.${k}_s", Stats.median(setupParts(k).toSeq), "s"))

    pl.put("core.alg1_ms", Stats.median(planMs("wcg").toSeq), "ms")
    pl.put("core.alg2_ms", Stats.median(planMs("wcgfw").toSeq), "ms")
    val fw = st.plans("wcgfw")
    pl.put("core.plan_nodes", fw.allWindows.size, "count")
    pl.put("core.factor_windows", fw.factorWindows.size, "count")
    Plans.foreach(p => pl.put(s"core.model_cost.$p", model(p).toDouble, "count"))
    pl.put("core.model_speedup", (BigDecimal(model("bl")) / BigDecimal(model("wcgfw"))).toDouble, "x")

    val nodeRows = new NodeTable(ctx, spec, st).measure()
    Plans.foreach { p =>
      val plan = PlanProbe.finalPlan(tr.last(p))
      val t = probe.of(p)
      val n = tr.walls(p).size.toDouble
      pl.put(s"exec.shuffles.$p", PlanProbe.shuffles(plan), "count")
      pl.put(s"exec.reused_exchanges.$p", PlanProbe.reusedExchanges(plan), "count")
      pl.put(s"exec.rows_in.$p", PlanProbe.explodedRows(plan).toDouble, "count")
      pl.put(s"exec.model_rows.$p", nodeRows.filter(_.plan == p).map(_.modelRows).sum, "count")
      pl.put(s"exec.node_s_total.$p", nodeRows.filter(_.plan == p).map(_.seconds).sum, "s")
      pl.put(s"exec.shuffle_mb.$p", t.shuffleWriteBytes.get / 1e6 / n, "MB")
      pl.put(s"exec.task_cpu_s.$p", t.cpuNs.get / 1e9 / n, "s")
      pl.put(s"exec.gc_s.$p", t.gcMs.get / 1e3 / n, "s")
      pl.put(s"exec.spill_mb.$p", t.spillBytes.get / 1e6 / n, "MB")
      pl.put(s"exec.stages.$p", t.stages.get / n, "count")
      pl.put(s"exec.tasks.$p", t.tasks.get / n, "count")
      pl.put(s"exec.core_busy_frac.$p",
        t.runMs.get / 1e3 / (tr.walls(p).sum * ctx.cores), "ratio")
    }
    pl.put("exec.cache_mb", probe.peakStorageBytes / 1e6, "MB")
    Plans.foreach(p => pl.put(s"exec.query_s.$p", med(untraced, p), "s"))
    pl.put("trace.query_s", med(tr, "wcgfw"), "s")
    pl.put("trace.overhead_s", med(tr, "wcgfw") - med(untraced, "wcgfw"), "s")
    spec.traced(ctx)
    pl.put("trace.spans", ctx.tracer.all.size, "count")
    ctx.tracer.selfSecondsByLayer.foreach { case (layer, sec) =>
      if (Catalog.layers.contains(layer)) pl.put(s"trace.self_s.$layer", sec, "s")
    }
  }
}
