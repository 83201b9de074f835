package repro.perfbench

import repro.core._
import repro.eval.EvalHarness
import scala.collection.mutable

/** One planner input: a window set, the semantics its aggregate needs, the
  * event rate and the time unit it is written in.
  */
final case class PlannerCase(windows: Vector[Window], semantics: Semantics, eta: BigInt,
                             unit: String, footnote4: Boolean)

/** The planner sweep: no Spark. Plans window sets of all seven §5.2
  * generator kinds, drawn from the bench seed, alternately at η = 1 and
  * η = 100, each written in seconds and again in milliseconds (ranges and
  * slides ×1000), with BL, Algorithm 1 and Algorithm 2 in rotated order.
  * Every fourth set has one window moved off `r ≡ 0 (mod s)` (footnote 4),
  * where the planner may reject the set as "not integral"; that rejection
  * is the expected outcome there and is counted in
  * `core.failed_not_integral`, while a rejection of any other set, or a
  * plan that fails its checks, is a failed operation.
  *
  * It runs inside the traced run of batch-hopping and reports per-layer
  * metrics only: planner time depends on the drawn sets and on how far the
  * JIT has got far more than on the planner, so no bounded end-to-end
  * metric can rest on it.
  */
object PlannerSweep {
  val Kinds: Seq[String] =
    Seq("random", "random-tumbling", "chain", "chain-tumbling", "star", "star-tumbling", "dag")
  val Plans: Seq[String] = BatchWorkload.Plans
  /** Window sets in the sweep (each planned in both units). */
  val Sets = 140
  /** Cases planned, untimed, before the sweep to warm the JIT. */
  val WarmupCases = 70

  def cases(seed: Long, sets: Int): Vector[PlannerCase] =
    (0 until sets).toVector.flatMap { i =>
      val kind = Kinds(i % Kinds.size)
      // A generator may give up on a seed (Algorithm 6 cannot always fill a
      // level); draw the next one, so the sweep stays a function of the seed.
      val base = Iterator.from(0)
        .map(j => scala.util.Try(EvalHarness.generate(kind, seed * 100003L + i + 7919L * j)))
        .collectFirst { case scala.util.Success(ws) => ws }.get
      val footnote4 = i % 4 != 3
      val windows =
        if (footnote4) base
        else (Window(base.head.r + 1, base.head.s) +: base.tail).distinct
      val semantics =
        if (kind.endsWith("tumbling")) Semantics.PartitionedBy else Semantics.CoveredBy
      val eta = if ((i / Kinds.size) % 2 == 0) 1 else 100
      for ((unit, scale) <- Seq("s" -> 1L, "ms" -> 1000L)) yield
        PlannerCase(windows.map(w => Window(w.r * scale, w.s * scale)), semantics, eta, unit, footnote4)
    }

  /** One planner call: the model cost, or what it threw, and the plan. */
  def call(c: PlannerCase, plan: String, tracer: Tracer): (Either[Throwable, BigInt], Option[WcgPlan]) =
    scala.util.Try(plan match {
      case "bl" => (tracer.span("core.baselineCost")(CostModel.baselineCost(c.windows, c.eta)), None)
      case "wcg" =>
        val p = tracer.span("core.minCostPlan")(CostModel.minCostPlan(c.windows, c.semantics, c.eta))
        (p.totalCost, Some(p))
      case _ =>
        val p = tracer.span("core.minCostPlanWithFactors")(
          FactorWindows.minCostPlanWithFactors(c.windows, c.semantics, c.eta))
        (p.totalCost, Some(p))
    }).fold(e => (Left(e), None), { case (cost, p) => (Right(cost), p) })

  def notIntegral(e: Throwable): Boolean =
    e.isInstanceOf[IllegalArgumentException] && String.valueOf(e.getMessage).contains("not integral")

  /** Why a successful plan is wrong, if it is: not a forest over the user
    * windows, an edge its semantics does not allow, or a cost above the
    * plan it must not lose to.
    */
  def invalid(c: PlannerCase, p: WcgPlan, bound: Option[BigInt]): Option[String] =
    if (!p.isForest) Some("plan is not a forest")
    else if (p.userWindows.toSet != c.windows.toSet) Some("plan lost a user window")
    else if (p.allWindows.exists(w => p.parent(w).exists(u => !c.semantics.relates(w, u))))
      Some("plan uses an edge its semantics does not allow")
    else if (bound.exists(p.totalCost > _)) Some("plan costs more than the plan it refines")
    else None

  /** Plan every case once after a short warm-up, record each outcome, and
    * put the sweep's per-layer metrics.
    */
  def measure(ctx: Ctx): Unit = {
    val tracer = ctx.tracer
    val sets = if (ctx.settings.tiny) Kinds.size else Sets
    val cs = tracer.span("gen.WindowGen")(cases(ctx.settings.seed, sets))
    cs.take(WarmupCases).zipWithIndex.foreach { case (c, i) => plan(ctx, c, i, counted = false) }
    val planned = cs.zipWithIndex.flatMap { case (c, i) => plan(ctx, c, i, counted = true) }
    val pl = ctx.perLayer
    def ms(unit: Option[String]) =
      planned.filter(x => unit.forall(_ == x.c.unit)).map(_.secs("wcgfw") * 1000)
    val rejected = cs.count(c => !c.footnote4 && !planned.exists(_.c eq c))
    ctx.say(s"planner sweep: ${cs.size} cases (${sets} sets × unit ∈ {s, ms}), " +
      s"${cs.count(!_.footnote4)} outside footnote 4, $rejected of them rejected as not integral")
    pl.put("core.sweep.cases", cs.size, "count")
    pl.put("core.sweep.not_footnote4", cs.count(!_.footnote4), "count")
    pl.put("core.failed_not_integral", rejected, "count")
    Seq("s", "ms").foreach(u => pl.put(s"core.alg2_ms.unit_$u", Stats.median(ms(Some(u))), "ms"))
    pl.put("core.sweep.plan_p50_ms", Stats.median(ms(None)), "ms")
    val (tailPct, tailMs) = Stats.tail(ms(None))
    pl.put("core.sweep.plan_tail_ms", tailMs, "ms")
    pl.put("core.sweep.plan_tail_pct", tailPct, "%")
    pl.put("core.sweep.fw_cost_ratio",
      Stats.geomean(planned.map(x => (BigDecimal(x.cost("wcgfw")) / BigDecimal(x.cost("bl"))).toDouble)), "ratio")
  }

  /** Plan one case with BL, Algorithm 1 and Algorithm 2 in rotated order
    * and check each result; `counted` records the outcomes. A `--corrupt`
    * run damages the first counted WCG-FW plan.
    */
  private def plan(ctx: Ctx, c: PlannerCase, i: Int, counted: Boolean): Option[Planned] = {
    val results = Timing.rotate(Plans, i).map { p =>
      val ((r, wp), t) = Timing.seconds(call(c, p, ctx.tracer))
      p -> (r, wp, t)
    }.toMap
    val fw = results("wcgfw")._2.map { wp =>
      if (counted && i == 0 && ctx.settings.corrupt) wp.copy(userWindows = wp.userWindows.tail)
      else wp
    }
    if (counted) Plans.foreach { p =>
      val error: Option[String] = results(p)._1 match {
        case Left(e) if notIntegral(e) && !c.footnote4 => None
        case Left(e) => Some(s"$p threw ${e.getClass.getSimpleName}: ${e.getMessage}")
        case Right(_) =>
          val refines = p match {
            case "wcg"   => results("bl")._1.toOption
            case "wcgfw" => results("wcg")._1.toOption
            case _       => None
          }
          (if (p == "wcgfw") fw else results(p)._2).flatMap(invalid(c, _, refines))
      }
      ctx.outcomes.record(error.map(m => s"planner ${c.unit} η=${c.eta} ${c.windows.mkString(" ")}: $m"))
    }
    if (Plans.forall(p => results(p)._1.isRight))
      Some(Planned(c, Plans.map(p => p -> results(p)._3).toMap,
        Plans.map(p => p -> results(p)._1.toOption.get).toMap, fw.get))
    else None
  }
}

/** A case all three planner calls planned: seconds and model cost per
  * plan, and the WCG-FW plan.
  */
final case class Planned(c: PlannerCase, secs: Map[String, Double],
                         cost: Map[String, BigInt], fw: WcgPlan)
