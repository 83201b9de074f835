package repro.core

import NumberTheory._

/** Factor windows (§4): auxiliary windows not in the query that are inserted
  * between a target window `W` (possibly the virtual root S⟨1,1⟩, modeled
  * here as `None` = the raw stream) and W's downstream windows `W_1…W_K`
  * (Figure 9), to reduce total cost. This object implements the exact
  * benefit Δcost of Equation 2, one candidate generator (§4.2.1), one
  * selector by exact Δ (§4.2, which under "partitioned by" reproduces
  * Algorithm 4 of §4.4), and Algorithm 2, which falls back to the
  * Algorithm 1 plan when that is no worse (§4.3).
  */
object FactorWindows {

  /** Exact cost difference `c − c'` of Equation 2 for the Figure-9 pattern:
    * negative means inserting `wf` between `target` and `downstream` lowers
    * the local cost. `target = None` denotes the virtual root (raw stream);
    * the cancelling `cost(W)` term is omitted on both sides.
    */
  def delta(wf: Window, target: Option[Window], downstream: Seq[Window],
            bigR: BigInt, eta: BigInt): BigInt = {
    val withFw = downstream.map(CostModel.edgeCost(_, wf, bigR)).sum +
      CostModel.cost(wf, target, bigR, eta)
    val withoutFw = downstream.map(CostModel.cost(_, target, bigR, eta)).sum
    withFw - withoutFw
  }

  /** Candidate factor windows for the Figure-9 pattern (§4.2.1). Slides
    * `s_f` divide the gcd of the downstream slides and are multiples of the
    * target's slide; ranges are multiples of `s_f` strictly between the
    * target's range and the minimum downstream range, so `wf` is neither the
    * target nor the virtual root. Windows already in the graph are excluded
    * (Definition 6). Per slide, only the finest and the coarsest remaining
    * range are kept, each if it relates to the target and every downstream
    * window relates to it. This loses no optimum:
    *  - For a fixed `s_f`, those relations hold for every range or for none
    *    under covered-by (Theorem 1 asks `s_W | r_W`, `s_f | r_j`). Under
    *    partitioned-by only `r_f = s_f` can pass: the downstream windows
    *    need a tumbling factor.
    *  - `s_f | r_f`, so `n_f = 1 + ⌊(R − r_f)/s_f⌋ = 1 + ⌊R/s_f⌋ − r_f/s_f`
    *    with `⌊R/s_f⌋` fixed for a given slide: `n_f` is linear in `r_f`.
    *    Δ (Equation 2) is then the linear `Σ n_j(1 + (r_j − r_f)/s_f)` plus
    *    a concave quadratic in `r_f`: `n_f·η·r_f` for the raw stream,
    *    `n_f·(1 + (r_f − r_W)/s_W)` for a real target. So its minimum over
    *    any set of one slide's ranges sits at the finest or coarsest one,
    *    and the `(Δ, −r, −s)` tie-break too.
    */
  def candidates(target: Option[Window], downstream: Seq[Window],
                 existing: Set[Window], semantics: Semantics): Seq[Window] = {
    if (downstream.isEmpty) return Nil
    val tw   = target.getOrElse(Window.virtualRoot)
    val rMin = downstream.map(_.r).min
    def feasible(wf: Window): Boolean =
      semantics.relates(wf, tw) && downstream.forall(semantics.relates(_, wf))
    divisors(gcdAll(downstream.map(w => BigInt(w.s))).toLong).filter(_ % tw.s == 0).flatMap { sf =>
      val (lo, hi) = ((tw.r / sf + 1) * sf, (rMin - 1) / sf * sf)
      def firstNew(from: Long, step: Long): Option[Window] =
        Iterator.iterate(from)(_ + step).takeWhile(rf => lo <= rf && rf <= hi)
          .map(Window(_, sf)).find(!existing.contains(_))
      (firstNew(lo, sf) ++ firstNew(hi, -sf)).filter(feasible).toSeq.distinct
    }
  }

  /** `FindBestFactorWindow` of Algorithm 2: among beneficial candidates
    * (Δ < 0, Equation 3) pick the one with maximum estimated reduction
    * (Equation 2). Ties break toward the coarsest candidate (largest r,
    * then largest s) for determinism.
    *
    * Under "partitioned by" this is also Algorithm 4 (§4.4). Every candidate
    * is tumbling, `W(s_f, s_f)`, so Δ is `Σ_j n_j·r_j/r_f` plus the factor
    * window's own cost (`η·R` from the raw stream, `R/r_W` from a tumbling
    * target), which does not depend on `r_f`: Δ strictly decreases in
    * `r_f`. The coarsest candidate wins, as Theorem 9's `r_f ≥ r'_f` and
    * dependent-candidate pruning pick it, and Algorithm 3 is `Δ ≤ 0`
    * (Theorem 8). Only a break-even candidate (Δ = 0) differs: Equation 3
    * declines it, Algorithm 3 would admit it.
    */
  def findBestGeneral(target: Option[Window], downstream: Seq[Window],
                      existing: Set[Window], semantics: Semantics,
                      bigR: BigInt, eta: BigInt): Option[Window] = {
    val cands = candidates(target, downstream, existing, semantics)
      .map(wf => (wf, delta(wf, target, downstream, bigR, eta)))
      .filter(_._2 < 0)
    if (cands.isEmpty) None
    else Some(cands.minBy { case (wf, d) => (d, -wf.r, -wf.s) }._1)
  }

  /** The Figure-9 patterns Algorithm 2 visits (lines 3–5): the virtual root
    * (`None`) over the windows with no incoming edge (§4.1), then every
    * window that has downstream windows over them.
    */
  def patterns(user: Vector[Window], semantics: Semantics): Seq[(Option[Window], Seq[Window])] = {
    val wcg = Wcg(user, semantics)
    ((None, user.filter(wcg.parentsOf(_).isEmpty)) +: user.map(w => (Some(w), wcg.childrenOf(w))))
      .filter(_._2.nonEmpty)
  }

  /** One factor window proposed per Figure-9 pattern (Algorithm 2), by
    * `FindBestFactorWindow` under either semantics.
    */
  def proposeFactors(user: Seq[Window], semantics: Semantics,
                     eta: BigInt): Vector[Window] = {
    val userV    = user.toVector.distinct
    val bigR     = CostModel.hyperPeriod(userV)
    val existing = userV.toSet
    patterns(userV, semantics).flatMap { case (target, ds) =>
      findBestGeneral(target, ds, existing, semantics, bigR, eta)
    }.toVector.distinct
  }

  /** Algorithm 2 (plus the §4.3 safeguard): build the min-cost WCG over the
    * user windows expanded with the proposed factor windows, and return it
    * only if it beats the factor-free Algorithm 1 plan.
    */
  def minCostPlanWithFactors(user: Seq[Window], semantics: Semantics,
                             eta: BigInt): WcgPlan = {
    val plain    = CostModel.minCostPlan(user, semantics, eta)
    val factors  = proposeFactors(user, semantics, eta)
    val expanded = CostModel.minCostPlan(user, factors, semantics, eta)
    if (expanded.totalCost < plain.totalCost) expanded else plain
  }
}
