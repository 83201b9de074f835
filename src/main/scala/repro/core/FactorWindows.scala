package repro.core

import NumberTheory._

/** Factor windows (§4): auxiliary windows not in the query that are inserted
  * between a target window `W` (possibly the virtual root S⟨1,1⟩, modeled
  * here as `None` = the raw stream) and W's downstream windows `W_1…W_K`
  * (Figure 9), to reduce total cost.
  *
  * This object implements:
  *  - the exact benefit Δcost of Equation 2 (and the Eq. 3 test Δ ≤ 0);
  *  - general candidate generation/selection (§4.2);
  *  - Algorithm 2 (min-cost WCG with factor windows; falls back to the
  *    Algorithm 1 plan when that is no worse — last paragraph of §4.3);
  *  - Algorithm 3 (benefit test under "partitioned by");
  *  - Algorithm 4 (best factor window under "partitioned by") with
  *    dependent-candidate pruning and the Theorem 9 comparator.
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

  /** Candidate factor windows for the Figure-9 pattern (§4.2.1): slides
    * dividing `gcd` of the downstream slides and multiples of the target's
    * slide; ranges that are multiples of the slide, at most the minimum
    * downstream range; and satisfying the coverage (or partitioning)
    * relation toward both the target and every downstream window. Windows
    * already present in the graph are excluded (Definition 6).
    */
  def candidates(target: Option[Window], downstream: Seq[Window],
                 existing: Set[Window], semantics: Semantics): Seq[Window] = {
    if (downstream.isEmpty) return Nil
    val tw   = target.getOrElse(Window.virtualRoot)
    val sd   = gcdAll(downstream.map(w => BigInt(w.s))).toLong
    val rMin = downstream.map(_.r).min
    for {
      sf <- divisors(sd) if sf % tw.s == 0
      rf <- (sf to rMin by sf)
      wf = Window(rf, sf)
      if !existing.contains(wf)
      if wf != tw && wf != Window.virtualRoot
      if semantics.relates(wf, tw) && wf.r > tw.r
      if downstream.forall(wj => semantics.relates(wj, wf) && wj.r > wf.r)
    } yield wf
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
    * virtual root) and its downstream windows, under "partitioned by".
    * Candidate ranges are the common factors of the downstream ranges and
    * slides that are proper multiples of the target's range; candidates are
    * filtered by Algorithm 3, pruned of dominated (dependent) ones — a
    * candidate covered by a finer candidate is kept, the finer one dropped
    * (§4.4.2) — and the best survivor is picked per Theorem 9.
    */
  def algorithm4Best(target: Option[Window], downstream: Seq[Window],
                     existing: Set[Window], bigR: BigInt,
                     eta: BigInt): Option[Window] = {
    if (downstream.isEmpty) return None
    val tw = target.getOrElse(Window.virtualRoot)
    require(tw.isTumbling, "Algorithm 4 assumes a tumbling target")
    // d = gcd of downstream ranges and slides (equals the paper's gcd of
    // ranges when all downstream windows are tumbling).
    val d = gcdAll(downstream.flatMap(w => Seq(BigInt(w.r), BigInt(w.s)))).toLong
    if (d == tw.r) return None // line 3: no room for a factor window
    val cands = divisors(d)
      .filter(rf => rf % tw.r == 0 && rf > tw.r)
      .map(Window.tumbling)
      .filterNot(existing.contains)
      .filter(wf => downstream.forall(wj => wj.partitionedBy(wf) && wj.r > wf.r))
      .filter(wf => algorithm3WouldHelp(wf, tw, downstream, bigR))
    // Dependent-candidate pruning: if some other candidate w' satisfies
    // w' ≼ wf (w' covered by wf, i.e. wf is finer), drop wf.
    val pruned = cands.filterNot(wf =>
      cands.exists(w2 => w2 != wf && w2.coveredBy(wf)))
    if (pruned.isEmpty) None
    else Some(pruned.minBy(wf =>
      (delta(wf, target, downstream, bigR, eta), -wf.r)))
  }

  /** One factor window proposed for each vertex of the augmented WCG
    * (lines 3–5 of Algorithm 2). The virtual root's downstream set consists
    * of the windows with no incoming edge (§4.1).
    */
  def proposeFactors(user: Seq[Window], semantics: Semantics,
                     eta: BigInt): Vector[Window] = {
    val userV = user.toVector.distinct
    val bigR  = CostModel.hyperPeriod(userV)
    val wcg   = Wcg(userV, semantics)
    val existing = userV.toSet

    def bestFor(target: Option[Window], downstream: Seq[Window]): Option[Window] =
      if (downstream.isEmpty) None
      else semantics match {
        case Semantics.PartitionedBy
            if target.forall(_.isTumbling) =>
          algorithm4Best(target, downstream, existing, bigR, eta)
        case _ =>
          findBestGeneral(target, downstream, existing, semantics, bigR, eta)
      }

    val rootsDownstream = userV.filter(w => wcg.parentsOf(w).isEmpty)
    val proposals =
      bestFor(None, rootsDownstream).toVector ++
        userV.flatMap(w => bestFor(Some(w), wcg.childrenOf(w)))
    proposals.distinct.filterNot(existing.contains)
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
