package repro.bench

/** Figure 12: RandomGen, tumbling-only windows ("partitioned by"),
  * η ∈ {1, 10, 100}.
  *
  * Paper observations reproduced: UP is no better than BL on tumbling sets
  * (pairing degenerates to one slice per period plus final overhead); WCG
  * outperforms BL; WCG-FW improves over WCG where common range factors
  * exist.
  */
class Fig12Bench extends FigureBench("Figure 12") {

  test("Figure 12 shape: UP >= BL on every tumbling set") {
    costs(100).foreach { case (label, c) =>
      assert(c.up >= c.bl, s"$label: UP beat BL on a tumbling set")
    }
  }

  test("Figure 12 shape: WCG clearly improves on BL for tumbling sets") {
    assert(geo(100)(_.wcg) < 0.9)
  }

  test("Figure 12 shape: WCG-FW improves on WCG (factor windows pay off)") {
    assert(geo(100)(_.wcgFw) < geo(100)(_.wcg))
  }
}
