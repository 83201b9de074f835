package repro.bench

/** Figure 13: ChainGen at η=100 — (a) general windows, (b) tumbling.
  *
  * Paper observations reproduced: on general chains WCG sits between UP and
  * BL while WCG-FW drops to SP's level; on tumbling chains WCG already
  * matches WCG-FW and SP (factor windows unnecessary — the chain itself
  * provides the sharing).
  */
class Fig13aBench extends FigureBench("Figure 13(a)") {
  assertHighRateShape(spFactor = 1.5)
}

class Fig13bBench extends FigureBench("Figure 13(b)") {
  test("Figure 13(b) shape: WCG ~ WCG-FW on tumbling chains (factor windows unnecessary)") {
    val (gW, gF) = (geo(100)(_.wcg), geo(100)(_.wcgFw))
    assert(gF <= gW && gW <= 1.05 * gF, f"WCG=$gW%.4f vs WCG-FW=$gF%.4f diverge")
  }
  test("Figure 13(b) shape: WCG reaches SP's level on tumbling chains") {
    assert(geo(100)(_.wcg) <= 1.25 * geo(100)(_.sp))
  }
}
