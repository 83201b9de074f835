package repro.core

import org.scalatest.funsuite.AnyFunSuite

class CostModelSpec extends AnyFunSuite with SeededProps {

  private val ex1 = Seq(10L, 20L, 30L, 40L).map(Window.tumbling) // Example 1
  private val ex7 = Seq(20L, 30L, 40L).map(Window.tumbling)      // Example 7

  // ---- hyper-period and recurrence count ---------------------------------

  test("hyper-period of Example 1 windows is lcm{10,20,30,40} = 120") {
    assert(CostModel.hyperPeriod(ex1) == 120)
  }

  test("hyper-period of Example 7 windows stays 120") {
    assert(CostModel.hyperPeriod(ex7) == 120)
  }

  test("Example 6 recurrence counts: 12, 6, 4, 3") {
    val R = CostModel.hyperPeriod(ex1)
    assert(ex1.map(CostModel.recurrenceCount(_, R)) == Seq(12, 6, 4, 3).map(BigInt(_)))
  }

  test("Equation 1: recurrence count equals brute-force instance count") {
    sampled(300)(alignedWindow(_)) { w =>
      val R = CostModel.hyperPeriod(Seq(w)) * (1 + w.r % 3) // some multiple of r
      assert(CostModel.recurrenceCount(w, R) == BruteForce.recurrences(w, R.toLong),
        s"$w over R=$R")
    }
  }

  test("recurrence count of a tumbling window is its multiplicity m = R/r") {
    sampled(200) { rnd => Window.tumbling(1 + rnd.nextLong(30)) } { w =>
      val R = BigInt(w.r) * 6
      assert(CostModel.recurrenceCount(w, R) == R / w.r)
    }
  }

  test("recurrence count equals the brute-force count on any window and period") {
    // Off footnote 4 (r mod s != 0) and over periods that are no multiple
    // of r, or shorter than r: the complete instances in [0, R).
    sampled(500) { rnd => (anyWindow(rnd), rnd.nextLong(100)) } { case (w, r) =>
      assert(CostModel.recurrenceCount(w, r) == BruteForce.recurrences(w, r), s"$w over R=$r")
    }
    assert(CostModel.recurrenceCount(Window(10, 3), BigInt(120)) == 37)
  }

  test("the planner prices {W(10,4), W(12,12)} (off footnote 4) under both semantics") {
    // R = 60: W(10,4) has 13 complete instances, W(12,12) 5; neither
    // covers the other. W(2,2) from the raw stream (30 instances) feeds
    // both: 60 + 13·5 + 5·6 = 155.
    val ws = Seq(Window(10, 4), Window.tumbling(12))
    assert(CostModel.baselineCost(ws, 1) == 13 * 10 + 5 * 12)
    Seq(Semantics.CoveredBy, Semantics.PartitionedBy).foreach { sem =>
      val wcg = CostModel.minCostPlan(ws, sem, 1)
      assert(wcg.isForest && wcg.roots.toSet == ws.toSet && wcg.totalCost == 190, s"$sem")
      val fw = FactorWindows.minCostPlanWithFactors(ws, sem, 1)
      assert(fw.isForest && fw.factorWindows == Vector(Window.tumbling(2)) && fw.totalCost == 155,
        s"$sem")
    }
  }

  // ---- costs --------------------------------------------------------------

  test("Example 6: baseline cost C = 4*eta*R = 480 at eta=1") {
    assert(CostModel.baselineCost(ex1, 1) == 480)
  }

  test("Example 6: baseline cost scales linearly with eta") {
    assert(CostModel.baselineCost(ex1, 100) == 48000)
  }

  test("root cost of a tumbling window is eta*R (footnote 6)") {
    sampled(100) { rnd => Window.tumbling(1 + rnd.nextLong(30)) } { w =>
      val R = BigInt(w.r) * 4
      assert(CostModel.rootCost(w, R, 7) == 7 * R)
    }
  }

  test("edge cost: n_i * M(W_i, W') (Observation 1)") {
    val R = BigInt(120)
    val (w2, w1) = (Window.tumbling(20), Window.tumbling(10))
    assert(CostModel.edgeCost(w2, w1, R) == 6 * 2)
  }

  // ---- Algorithm 1 on the worked examples --------------------------------

  test("Example 6: min-cost WCG total is 150 (62.5% below 480)") {
    val plan = CostModel.minCostPlan(ex1, Semantics.CoveredBy, 1)
    assert(plan.totalCost == 150)
  }

  test("Example 6: min-cost WCG picks W1 for W2 and W3, W2 for W4 (Figure 6(b))") {
    val Seq(w1, w2, w3, w4) = ex1
    val plan = CostModel.minCostPlan(ex1, Semantics.CoveredBy, 1)
    assert(plan.parent(w1).isEmpty)
    assert(plan.parent(w2).contains(w1))
    assert(plan.parent(w3).contains(w1))
    assert(plan.parent(w4).contains(w2))
  }

  test("Example 6 costs per window: 120 + 12 + 12 + 6") {
    val Seq(w1, w2, w3, w4) = ex1
    val plan = CostModel.minCostPlan(ex1, Semantics.CoveredBy, 1)
    assert(plan.costOf(w1) == 120)
    assert(plan.costOf(w2) == 12)
    assert(plan.costOf(w3) == 12)
    assert(plan.costOf(w4) == 6)
  }

  test("Example 6 coincides under partitioned-by semantics (all tumbling)") {
    assert(CostModel.minCostPlan(ex1, Semantics.PartitionedBy, 1).totalCost == 150)
  }

  test("Example 7: min-cost WCG without factor windows costs 246 (Figure 7(a))") {
    val plan = CostModel.minCostPlan(ex7, Semantics.CoveredBy, 1)
    assert(plan.totalCost == 246)
    val Seq(w2, w3, w4) = ex7
    assert(plan.parent(w2).isEmpty)
    assert(plan.parent(w3).isEmpty)
    assert(plan.parent(w4).contains(w2))
  }

  // ---- structural properties ---------------------------------------------

  test("Theorem 7: the min-cost WCG is a forest (each window <= one parent)") {
    sampled(200) { rnd => alignedSet(rnd, 6) } { ws =>
      val plan = CostModel.minCostPlan(ws, Semantics.CoveredBy, 1)
      assert(plan.isForest)
      ws.foreach(w => assert(plan.parent.contains(w)))
    }
  }

  test("min-cost WCG never exceeds the baseline cost") {
    sampled(200) { rnd => alignedSet(rnd, 5) } { ws =>
      Seq(Semantics.CoveredBy, Semantics.PartitionedBy).foreach { sem =>
        Seq(BigInt(1), BigInt(100)).foreach { eta =>
          val plan = CostModel.minCostPlan(ws, sem, eta)
          assert(plan.totalCost <= CostModel.baselineCost(ws, eta), s"$sem eta=$eta $ws")
        }
      }
    }
  }

  test("partitioned-by plan cost is never below covered-by plan cost") {
    sampled(200) { rnd => alignedSet(rnd, 5) } { ws =>
      val cov  = CostModel.minCostPlan(ws, Semantics.CoveredBy, 1).totalCost
      val part = CostModel.minCostPlan(ws, Semantics.PartitionedBy, 1).totalCost
      assert(cov <= part, s"coverage should only open options on $ws")
    }
  }

  test("topological order puts every parent before its children") {
    sampled(150) { rnd => alignedSet(rnd, 6) } { ws =>
      val plan  = CostModel.minCostPlan(ws, Semantics.CoveredBy, 1)
      val order = plan.topological
      assert(order.toSet == plan.allWindows.toSet)
      order.zipWithIndex.foreach { case (w, i) =>
        plan.parent(w).foreach(p => assert(order.indexOf(p) < i, s"$p after $w"))
      }
    }
  }

  test("plan cost decomposes as the sum of per-window costs") {
    sampled(100) { rnd => alignedSet(rnd, 5) } { ws =>
      val plan = CostModel.minCostPlan(ws, Semantics.CoveredBy, 3)
      assert(plan.totalCost == plan.allWindows.map(plan.costOf).sum)
    }
  }

  test("eta only affects root costs") {
    sampled(100) { rnd => alignedSet(rnd, 5) } { ws =>
      val p1   = CostModel.minCostPlan(ws, Semantics.CoveredBy, 1)
      val p100 = CostModel.minCostPlan(ws, Semantics.CoveredBy, 100)
      p1.allWindows.foreach { w =>
        if (p1.parent(w).isEmpty && p100.parent(w).isEmpty)
          assert(p100.costOf(w) == 100 * p1.costOf(w))
      }
    }
  }

  test("duplicate windows are collapsed before planning") {
    val plan = CostModel.minCostPlan(Seq(Window(10, 10), Window(10, 10), Window(20, 20)),
      Semantics.CoveredBy, 1)
    assert(plan.userWindows.size == 2)
  }

  test("baseline cost of a repeated window set equals that of its distinct set") {
    val ws = Seq(Window(10, 10), Window(10, 10), Window(20, 20))
    assert(CostModel.baselineCost(ws, 1) == CostModel.baselineCost(ws.distinct, 1))
    assert(CostModel.baselineCost(ws, 1) == 40) // eta*R = 20 per tumbling window
  }

  test("eta must be at least 1") {
    assertThrows[IllegalArgumentException](
      CostModel.minCostPlan(ex1, Semantics.CoveredBy, 0))
  }

  test("singleton window set: plan is the baseline") {
    val w = Window(12, 4)
    val plan = CostModel.minCostPlan(Seq(w), Semantics.CoveredBy, 5)
    assert(plan.parent(w).isEmpty)
    assert(plan.totalCost == CostModel.baselineCost(Seq(w), 5))
  }
}
