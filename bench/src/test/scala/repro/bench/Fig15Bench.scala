package repro.bench

/** Figure 15: RandomGraphGen (3 levels of 2/4/6 windows) at η=100.
  *
  * Paper observations reproduced: BL and UP are the worst; WCG-FW is no
  * worse than WCG and can reach SP's level.
  */
class Fig15Bench extends FigureBench("Figure 15") {

  assertHighRateShape(spFactor = 3.0)

  test("Figure 15 shape: WCG exploits the DAG structure (well below BL)") {
    assert(geo(100)(_.wcg) < 0.5)
  }
}
