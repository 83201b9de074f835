package repro.core

import NumberTheory._

/** Factor windows (§4): auxiliary windows not in the query that are inserted
  * between a target window `W` (possibly the virtual root S⟨1,1⟩, modeled
  * here as `None` = the raw stream) and W's downstream windows `W_1…W_K`
  * (Figure 9), to reduce total cost. This object implements the exact
  * benefit Δcost of Equation 2, one candidate generator (§4.2.1) shared by
  * the general selection (§4.2) and Algorithm 4 (§4.4, with Algorithm 3,
  * dependent-candidate pruning and Theorem 9), and Algorithm 2, which falls
  * back to the Algorithm 1 plan when that is no worse (§4.3).
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
    *  - Δ (Equation 2) is the linear `Σ n_j(1 + (r_j − r_f)/s_f)` plus a
    *    concave quadratic in `r_f`: `(1 + (R − r_f)/s_f)·η·r_f` for the raw
    *    stream, `(1 + (R − r_f)/s_f)·(1 + (r_f − r_W)/s_W)` for a real
    *    target. So its minimum over any set of one slide's ranges sits at
    *    the finest or coarsest one, and the `(Δ, −r, −s)` tie-break too.
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

  /** Algorithm 3: does a *tumbling* factor window `wf` inserted below the
    * tumbling target `tw` (r_f a proper multiple of r_W) help, under
    * "partitioned by" semantics? Exact per Theorem 8.
    */
  def algorithm3WouldHelp(wf: Window, tw: Window, downstream: Seq[Window],
                          bigR: BigInt): Boolean = {
    require(wf.isTumbling && tw.isTumbling, "Algorithm 3 assumes tumbling wf and W")
    downstream match {
      case ds if ds.sizeIs >= 2 => true
      case Seq(w1) =>
        val k1 = w1.k
        if (k1 == 1) false
        else {
          val m1 = (bigR / w1.r)
          // m1 = 1 makes λ = n1/m1 = 1 and Equation 7 infeasible (the
          // paper's proof of Theorem 8 notes this degenerate case): no help.
          if (m1 == 1) false
          else if (k1 >= 3 && m1 >= 3) true
          else {
            // r_f/r_W ≥ λ/(λ−1) with λ/(λ−1) = 1 + m1/((m1−1)(k1−1));
            // cross-multiplied in exact integer arithmetic.
            val den = (m1 - 1) * (k1 - 1)
            BigInt(wf.r) * den >= BigInt(tw.r) * (den + m1)
          }
        }
      case _ => false // K = 0: nothing downstream to help
    }
  }

  /** Theorem 9 comparator for two *independent* tumbling candidates under
    * "partitioned by": returns true iff `c_f ≤ c'_f`, i.e. `wf` is at least
    * as good as `wf2`. Evaluated via the exact `delta`s (the local costs
    * minus a term common to both candidates), which Theorem 9 shows is
    * equivalent to its rational inequality.
    */
  def theorem9AtLeastAsGood(wf: Window, wf2: Window, target: Option[Window],
                            downstream: Seq[Window], bigR: BigInt,
                            eta: BigInt): Boolean =
    delta(wf, target, downstream, bigR, eta) <=
      delta(wf2, target, downstream, bigR, eta)

  /** The literal inequality of Theorem 9, in exact rational arithmetic:
    * `r_f/r'_f ≥ (λ − r_f/r_W) / (λ − r'_f/r_W)` with `λ = Σ_j n_j/m_j`
    * (Equation 4). Only well-posed when both denominators share a sign;
    * exposed separately so tests can check it against the exact costs.
    */
  def theorem9Inequality(wf: Window, wf2: Window, tw: Window,
                         downstream: Seq[Window], bigR: BigInt): Boolean = {
    // λ = Σ n_j/m_j as an exact rational (num/den).
    val (lNum, lDen) = downstream.foldLeft((BigInt(0), BigInt(1))) {
      case ((num, den), wj) =>
        val nj = CostModel.recurrenceCount(wj, bigR)
        val mj = bigR / wj.r
        (num * mj + nj * den, den * mj)
    }
    // (λ − r_f/r_W) = (lNum·r_W − r_f·lDen) / (lDen·r_W); denominators of
    // both sides equal, so compare a/b ≥ c/d via cross-multiplication with
    // sign handling.
    val a = BigInt(wf.r); val b = BigInt(wf2.r)
    val c = lNum * tw.r - a * lDen
    val d = lNum * tw.r - b * lDen
    if (d.signum == 0) a >= b // degenerate; fall back to range order
    else if (d.signum > 0) a * d >= b * c
    else a * d <= b * c
  }

  /** Algorithm 4: best tumbling factor window for target `target` (None =
    * virtual root) under "partitioned by". Its candidates, the tumbling
    * common factors of the downstream ranges and slides above `r_W` (none
    * when their gcd is `r_W`, line 3), are filtered by Algorithm 3, pruned
    * of dominated (dependent) ones — a candidate covered by a finer one is
    * kept, the finer one dropped (§4.4.2) — and picked per Theorem 9.
    */
  def algorithm4Best(target: Option[Window], downstream: Seq[Window],
                     existing: Set[Window], bigR: BigInt,
                     eta: BigInt): Option[Window] = {
    val tw = target.getOrElse(Window.virtualRoot)
    require(tw.isTumbling, "Algorithm 4 assumes a tumbling target")
    val cands = candidates(target, downstream, existing, Semantics.PartitionedBy)
      .filter(wf => downstream match {
        // Algorithm 3 needs r_1 ≡ 0 mod s_1 (footnote 4); else Equation 3.
        case Seq(w1) if w1.r % w1.s != 0 => delta(wf, target, downstream, bigR, eta) < 0
        case _ => algorithm3WouldHelp(wf, tw, downstream, bigR)
      })
    // Dependent-candidate pruning: if some other candidate w' satisfies
    // w' ≼ wf (w' covered by wf, i.e. wf is finer), drop wf.
    val pruned = cands.filterNot(wf =>
      cands.exists(w2 => w2 != wf && w2.coveredBy(wf)))
    if (pruned.isEmpty) None
    else Some(pruned.minBy(wf =>
      (delta(wf, target, downstream, bigR, eta), -wf.r)))
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

  /** One factor window proposed per Figure-9 pattern (Algorithm 2): by
    * Algorithm 4 under "partitioned by", where only tumbling windows have
    * downstream windows, and by `FindBestFactorWindow` under "covered by".
    */
  def proposeFactors(user: Seq[Window], semantics: Semantics,
                     eta: BigInt): Vector[Window] = {
    val userV    = user.toVector.distinct
    val bigR     = CostModel.hyperPeriod(userV)
    val existing = userV.toSet
    patterns(userV, semantics).flatMap { case (target, ds) =>
      if (semantics == Semantics.PartitionedBy) algorithm4Best(target, ds, existing, bigR, eta)
      else findBestGeneral(target, ds, existing, semantics, bigR, eta)
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
