package repro.eval

import repro.core._
import repro.slicing.Slicing

/** The five participating techniques of §5.2 and their analytic costs over
  * a common period. Each technique has a natural period — `R = lcm(r_i)`
  * for BL/WCG/WCG-FW, `S = lcm(s_i)` for the slicing techniques — so, as in
  * §5.2 "Evaluation Metrics", every cost is extended to the least common
  * multiple `L = lcm(R, S)` before comparison.
  */
final case class TechniqueCosts(
    bl: BigInt,     // Baseline: each window from the raw stream
    up: BigInt,     // Unshared Paired windows
    sp: BigInt,     // Shared Paired windows
    wcg: BigInt,    // Algorithm 1 (min-cost WCG)
    wcgFw: BigInt,  // Algorithm 2 (min-cost WCG with factor windows)
    period: BigInt, // the common period L
) {
  def toSeq: Seq[(String, BigInt)] =
    Seq("BL" -> bl, "UP" -> up, "SP" -> sp, "WCG" -> wcg, "WCG-FW" -> wcgFw)
}

object Techniques {

  /** Evaluate all five techniques on the distinct windows of `query`
    * under the given aggregate semantics and event rate η.
    */
  def evaluate(query: Seq[Window], semantics: Semantics, eta: Long): TechniqueCosts = {
    val windows = query.distinct
    val bigR = CostModel.hyperPeriod(windows)
    val bigS = Slicing.slicingPeriod(windows)
    val L    = NumberTheory.lcm(bigR, bigS)
    val e    = BigInt(eta)

    val bl    = CostModel.baselineCost(windows, e) * (L / bigR)
    val wcg   = CostModel.minCostPlan(windows, semantics, e).totalCost * (L / bigR)
    val wcgFw = FactorWindows.minCostPlanWithFactors(windows, semantics, e).totalCost * (L / bigR)
    val up    = Slicing.unsharedPaired(windows, e).total * (L / bigS)
    val sp    = Slicing.sharedPaired(windows, e).total * (L / bigS)
    TechniqueCosts(bl, up, sp, wcg, wcgFw, L)
  }
}
