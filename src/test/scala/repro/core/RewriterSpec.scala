package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The §3.3 rewrite as the min-cost forest (`WcgPlan`) holds it: which
  * window feeds which, where a `Multicast` sits, and which windows reach
  * `Union`. `RenderSpec` pins the printed trees.
  */
class RewriterSpec extends AnyFunSuite with SeededProps {

  private val ex1 = Seq(10L, 20L, 30L, 40L).map(Window.tumbling)
  private def tw(r: Long) = Window.tumbling(r)
  private def trimmed(plan: WcgPlan): Vector[String] =
    plan.render.linesIterator.map(_.trim).toVector

  test("Example 1 rewritten plan matches the right side of Figure 2(a)") {
    val plan = CostModel.minCostPlan(ex1, Semantics.CoveredBy, 1)
    // Single root W(10,10): the source Multicast is removed (step 1).
    assert(plan.roots == Vector(tw(10)))
    assert(!plan.render.linesIterator.contains("  Multicast"))
    // W10 multicasts to W20 and W30; W20 multicasts to W40 (step 2).
    assert(plan.childrenOf(tw(10)).toSet == Set(tw(20), tw(30)))
    assert(plan.childrenOf(tw(20)) == Vector(tw(40)))
    // Leaves link straight to Union, as do W10 and W20 (step 3).
    assert(plan.childrenOf(tw(30)).isEmpty && plan.childrenOf(tw(40)).isEmpty)
    assert(plan.factorWindows.isEmpty && plan.userWindows.toSet == ex1.toSet)
  }

  test("every user window reaches Union on random plans; factor windows never link Union directly") {
    sampled(150) { rnd => alignedSet(rnd, 5) } { ws =>
      val plan = FactorWindows.minCostPlanWithFactors(ws, Semantics.CoveredBy, 100)
      // Every window is reached from Source along in-plan parent links.
      def fromSource(w: Window, seen: Set[Window]): Boolean = plan.parent(w) match {
        case None    => true
        case Some(p) => plan.allWindows.contains(p) && !seen(p) && fromSource(p, seen + p)
      }
      plan.allWindows.foreach(w => assert(fromSource(w, Set(w)), s"$w lost in $ws"))
      // Union takes exactly the user windows; factor windows stay unexposed.
      assert(plan.userWindows.toSet == ws.toSet)
      assert(plan.factorWindows.toSet.intersect(ws.toSet).isEmpty, s"$ws")
      val toUnion = trimmed(plan).filter(l => l.startsWith("Window(") && !l.endsWith(" [factor]"))
      assert(toUnion.sorted == plan.userWindows.map(w => s"Window(${w.r},${w.s})").sorted,
        plan.render)
    }
  }

  test("rewritten plan has exactly one MultiCast per window with children") {
    sampled(100) { rnd => alignedSet(rnd, 5) } { ws =>
      val plan = CostModel.minCostPlan(ws, Semantics.CoveredBy, 1)
      val multicasts = trimmed(plan).filter(_.startsWith("Multicast@"))
      val withChildren = plan.allWindows.filter(plan.childrenOf(_).nonEmpty)
      assert(multicasts.sorted == withChildren.map(w => s"Multicast@$w").sorted, plan.render)
    }
  }

  test("render produces a readable tree containing every window") {
    val plan = CostModel.minCostPlan(ex1, Semantics.CoveredBy, 1)
    val text = plan.render
    ex1.foreach(w => assert(text.contains(s"Window(${w.r},${w.s})")))
    assert(text.startsWith("Source"))
    assert(text.linesIterator.toSeq.last == "Union")
  }
}
