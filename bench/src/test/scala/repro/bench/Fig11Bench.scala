package repro.bench

/** Figure 11: RandomGen, general windows, η ∈ {1, 10, 100}.
  *
  * Paper observations reproduced: BL worst overall; UP significantly beats
  * BL on general windows; SP improves over UP further; WCG alone is "not
  * very effective" on general sets; WCG-FW improves WCG significantly and
  * is comparable to SP.
  */
class Fig11Bench extends FigureBench("Figure 11") {

  assertHighRateShape(spFactor = 5.0)

  test("Figure 11 shape: WCG-FW improves WCG significantly on general sets") {
    assert(geo(100)(_.wcgFw) < 0.5 * geo(100)(_.wcg))
  }

  test("Figure 11 shape: UP well below BL on general (hopping) sets at eta=100") {
    assert(geo(100)(_.up) < 0.5)
  }
}
