package repro.exec

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.eval.EvalHarness
import repro.gen.WindowGen

/** The cost model against work actually done: on a dense stream, the items
  * `ForestEval` merges into each node's complete instances are that node's
  * cost `c_i` of §3.2.1 / Observation 1. The pane path of
  * `Executor.rewritten` (panes per input partition, merged per key) gives
  * the same rows and counts as one pass over the events. (Its results are
  * checked against the baseline plan and DuckDB in `ExecutorSpec`.)
  */
class ForestEvalSpec extends AnyFunSuite {

  private val ex1 = Seq(10L, 20L, 30L, 40L).map(Window.tumbling)
  private val ex7 = Seq(20L, 30L, 40L).map(Window.tumbling)
  private val hopping = Seq(Window(40, 10), Window(80, 20), Window(120, 40))

  /** Runs `plan` over a dense stream on `[0, R)`, one event per time unit
    * and key (η = 1), for two keys. Per node, the items merged into its
    * instances inside `[0, R)` must be `costOf(w)` per key, and their sum
    * `totalCost`.
    */
  private def assertCountsMatchModel(plan: WcgPlan, hint: String): Unit = {
    assert(plan.eta == 1, s"$hint: the model's costs are per event rate")
    val (bigR, keys) = (plan.bigR.toLong, 2L)
    val agg = if (plan.semantics == Semantics.CoveredBy) AggSpec.Min else AggSpec.Sum
    val events = for (t <- Iterator.range(0L, bigR); k <- Iterator.range(0L, keys)) yield (k, t, 1.0)
    val result = ForestEval(plan, agg, events)
    val perNode = plan.allWindows.map { w =>
      val merged = result.merged(w).collect { case (a, n) if a + w.r <= bigR => n }.sum
      assert(merged % keys == 0, s"$hint: $w")
      w -> BigInt(merged / keys)
    }
    perNode.foreach { case (w, n) =>
      assert(n == plan.costOf(w), s"$hint: $w merged $n items, model cost ${plan.costOf(w)}")
    }
    assert(perNode.map(_._2).sum == plan.totalCost, hint)
  }

  /** Whether every window's recurrence count over `R` is integral
    * (footnote 4), so that the model prices it.
    */
  private def footnote4(ws: Seq[Window]): Boolean = {
    val bigR = CostModel.hyperPeriod(ws)
    ws.forall(w => (bigR - w.r) % w.s == 0)
  }

  test("count property: Example 6 (both semantics), 7 and 8 at eta=1") {
    Seq(Semantics.CoveredBy, Semantics.PartitionedBy).foreach { sem =>
      val plan = CostModel.minCostPlan(ex1, sem, 1)
      assert(plan.totalCost == 150)
      assertCountsMatchModel(plan, s"Example 6 ($sem)")
    }
    val ex7Plain = CostModel.minCostPlan(ex7, Semantics.PartitionedBy, 1)
    assert(ex7Plain.totalCost == 246)
    assertCountsMatchModel(ex7Plain, "Example 7")
    val ex8 = FactorWindows.minCostPlanWithFactors(ex7, Semantics.PartitionedBy, 1)
    assert(ex8.totalCost == 150 && ex8.factorWindows.nonEmpty)
    assertCountsMatchModel(ex8, "Example 8")
  }

  test("count property: the batch-hopping windows, with and without factor windows") {
    assertCountsMatchModel(CostModel.minCostPlan(hopping, Semantics.CoveredBy, 1), "WCG")
    val fw = FactorWindows.minCostPlanWithFactors(hopping, Semantics.CoveredBy, 1)
    assert(fw.factorWindows.nonEmpty)
    assertCountsMatchModel(fw, "WCG-FW")
  }

  Seq(("Figure 11", "random", Semantics.CoveredBy),
      ("Figure 12", "random-tumbling", Semantics.PartitionedBy)).foreach { case (figure, kind, sem) =>
    test(s"count property: $figure sets at eta=1, WCG and WCG-FW plans") {
      val sets = EvalHarness.sets(kind).filter { case (_, ws) => footnote4(ws) }
      assert(sets.nonEmpty)
      sets.foreach { case (label, ws) =>
        assertCountsMatchModel(CostModel.minCostPlan(ws, sem, 1), s"$kind/$label WCG")
        assertCountsMatchModel(FactorWindows.minCostPlanWithFactors(ws, sem, 1),
          s"$kind/$label WCG-FW")
      }
    }
  }

  // ---- the pane path -------------------------------------------------------

  test("paneLength divides every root's range and slide on sampled plans") {
    (1L to 40L).foreach { seed =>
      val g = new WindowGen(seed, sMax = 8, kMax = 5)
      Seq(g.randomSet(4) -> Semantics.CoveredBy, g.chainSet(4) -> Semantics.CoveredBy,
          g.randomTumblingSet(4) -> Semantics.PartitionedBy).foreach { case (ws, sem) =>
        Seq(CostModel.minCostPlan(ws, sem, 100),
            FactorWindows.minCostPlanWithFactors(ws, sem, 100)).foreach { plan =>
          val len = ForestEval.paneLength(plan)
          assert(len > 0 && plan.roots.forall(w => w.r % len == 0 && w.s % len == 0),
            s"seed $seed: pane length $len, roots ${plan.roots}")
        }
      }
    }
  }

  /** Random events on two hyper-periods of `plan`, split at random into
    * 1–8 input partitions, each merged into panes, must give through
    * `fromPanes` the rows and per-node counts of one pass over the events:
    * MIN exactly, SUM and AVG within 1e-9 relative (panes add in another
    * order).
    */
  private def assertPanesMatchOnePass(plan: WcgPlan, hint: String, seed: Long): Unit = {
    val rnd = new scala.util.Random(seed)
    val horizon = (plan.bigR * 2).min(BigInt(1000000)).toLong
    val events = Vector.fill(2000)((rnd.nextInt(3).toLong, (rnd.nextDouble() * horizon).toLong,
      math.round(rnd.nextDouble() * 100000) / 1000.0))
    val aggs = if (plan.semantics == Semantics.CoveredBy) Seq(AggSpec.Min) else Seq(AggSpec.Sum, AggSpec.Avg)
    aggs.foreach { agg =>
      val onePass = ForestEval(plan, agg, events.iterator)
      val parts = 1 + rnd.nextInt(8)
      val split = events.groupBy(_ => rnd.nextInt(parts)).values
      val g = ForestEval.paneLength(plan)
      val viaPanes = ForestEval.fromPanes(plan, agg,
        split.iterator.flatMap(part => ForestEval.panes(g, agg, part.iterator)))
      val h = s"$hint (${agg.name}, $parts partitions, pane length $g)"
      val (want, got) = (keyed(onePass.rows), keyed(viaPanes.rows))
      assert(got.keySet == want.keySet, h)
      want.foreach { case (k, v) =>
        val tolerance = if (agg == AggSpec.Min) 0.0 else 1e-9 * math.max(1.0, math.abs(v))
        assert(math.abs(got(k) - v) <= tolerance, s"$h: $k: ${got(k)} vs $v")
      }
      plan.allWindows.foreach(w => assert(viaPanes.merged(w) == onePass.merged(w), s"$h: $w"))
    }
  }

  private def keyed(rows: Iterator[ForestEval.Row]): Map[(Long, Long, Long, Long), Double] =
    rows.map { case (r, s, k, a, v) => (r, s, k, a) -> v }.toMap

  test("panes from random partitions == one pass: Examples 6-8 and the batch-hopping windows") {
    Seq(Semantics.CoveredBy, Semantics.PartitionedBy).foreach { sem =>
      assertPanesMatchOnePass(CostModel.minCostPlan(ex1, sem, 1), s"Example 6 ($sem)", 1)
    }
    assertPanesMatchOnePass(CostModel.minCostPlan(ex7, Semantics.PartitionedBy, 1), "Example 7", 2)
    assertPanesMatchOnePass(
      FactorWindows.minCostPlanWithFactors(ex7, Semantics.PartitionedBy, 1), "Example 8", 3)
    assertPanesMatchOnePass(CostModel.minCostPlan(hopping, Semantics.CoveredBy, 1), "hopping WCG", 4)
    assertPanesMatchOnePass(
      FactorWindows.minCostPlanWithFactors(hopping, Semantics.CoveredBy, 1), "hopping WCG-FW", 5)
  }

  Seq(("Figure 11", "random", Semantics.CoveredBy),
      ("Figure 12", "random-tumbling", Semantics.PartitionedBy)).foreach { case (figure, kind, sem) =>
    test(s"panes from random partitions == one pass: $figure sets, WCG and WCG-FW plans") {
      EvalHarness.sets(kind).zipWithIndex.foreach { case ((label, ws), i) =>
        assertPanesMatchOnePass(CostModel.minCostPlan(ws, sem, 1), s"$kind/$label WCG", i)
        assertPanesMatchOnePass(FactorWindows.minCostPlanWithFactors(ws, sem, 1),
          s"$kind/$label WCG-FW", 100 + i)
      }
    }
  }
}
