package repro.bench

/** Figure 14: StarGen at η=100 — (a) general windows, (b) tumbling.
  * Same observations as ChainGen (Figure 13), per the paper.
  */
class Fig14aBench extends FigureBench("Figure 14(a)") {
  assertHighRateShape(spFactor = 1.5)
}

class Fig14bBench extends FigureBench("Figure 14(b)") {
  test("Figure 14(b) shape: WCG ~ WCG-FW on tumbling stars") {
    val (gW, gF) = (geo(100)(_.wcg), geo(100)(_.wcgFw))
    assert(gF <= gW && gW <= 1.05 * gF, f"WCG=$gW%.4f vs WCG-FW=$gF%.4f diverge")
  }
  test("Figure 14(b) shape: WCG reaches SP's level on tumbling stars") {
    assert(geo(100)(_.wcg) <= 1.25 * geo(100)(_.sp))
  }
}
