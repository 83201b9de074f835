package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** `WcgPlan.render`: the §3.3 rewritten plan as a Figure 2(b) tree. */
class RenderSpec extends AnyFunSuite with SeededProps {

  private val ex1 = Seq(10L, 20L, 30L, 40L).map(Window.tumbling)
  private val ex7 = Seq(20L, 30L, 40L).map(Window.tumbling)

  test("Example 1: one root, so no source Multicast (Figure 2(a), right)") {
    val plan = CostModel.minCostPlan(ex1, Semantics.CoveredBy, 1)
    assert(plan.render ==
      """Source
        |  Window(10,10)
        |    Multicast@W(10,10)
        |      Window(20,20)
        |        Multicast@W(20,20)
        |          Window(40,40)
        |      Window(30,30)
        |Union
        |""".stripMargin)
  }

  test("Example 7 with factor window W(10,10): marked, it does not feed Union") {
    val plan = FactorWindows.minCostPlanWithFactors(ex7, Semantics.PartitionedBy, 1)
    assert(plan.render ==
      """Source
        |  Window(10,10) [factor]
        |    Multicast@W(10,10)
        |      Window(20,20)
        |        Multicast@W(20,20)
        |          Window(40,40)
        |      Window(30,30)
        |Union
        |""".stripMargin)
  }

  test("two roots keep the source Multicast") {
    val plan = CostModel.minCostPlan(Seq(Window.tumbling(20), Window.tumbling(27)),
      Semantics.CoveredBy, 1)
    assert(plan.render ==
      """Source
        |  Multicast
        |    Window(20,20)
        |    Window(27,27)
        |Union
        |""".stripMargin)
  }

  private val WindowLine    = """( *)Window\((\d+),(\d+)\)( \[factor\])?""".r
  private val MulticastLine = """ *Multicast@W\((\d+),(\d+)\)""".r
  private def sorted(ws: Seq[Window]): Seq[Window] = ws.sortBy(w => (w.r, w.s))

  test("random plans: windows, [factor] marks and Multicast@ lines as in the forest") {
    var factorPlans = 0
    sampled(150) { rnd => alignedSet(rnd, 5) } { ws =>
      val plan = FactorWindows.minCostPlanWithFactors(ws, Semantics.CoveredBy, 100)
      if (plan.factorWindows.nonEmpty) factorPlans += 1
      val lines = plan.render.linesIterator.toVector
      val windows = lines.collect { case WindowLine(indent, r, s, mark) =>
        (Window(r.toLong, s.toLong), indent.length / 2, mark != null)
      }
      val multicasts = lines.collect { case MulticastLine(r, s) => Window(r.toLong, s.toLong) }
      def depth(w: Window): Int = plan.parent(w).fold(0)(depth(_) + 1)
      val base = if (plan.roots.size >= 2) 2 else 1

      assert(lines.head == "Source" && lines.last == "Union", plan.render)
      assert(lines.contains("  Multicast") == (plan.roots.size >= 2), plan.render)
      assert(sorted(windows.map(_._1)) == sorted(plan.allWindows), s"$ws:\n${plan.render}")
      windows.foreach { case (w, indent, _) =>
        assert(indent == base + 2 * depth(w), s"$w at indent $indent:\n${plan.render}")
      }
      assert(windows.collect { case (w, _, true) => w }.toSet == plan.factorWindows.toSet,
        plan.render)
      assert(sorted(multicasts) == sorted(plan.allWindows.filter(plan.childrenOf(_).nonEmpty)),
        plan.render)
    }
    assert(factorPlans > 0, "no sampled plan had a factor window")
  }
}
