package repro.core

/** Number-theory helpers shared by the cost model and the slicing substrate. */
object NumberTheory {
  def gcd(a: BigInt, b: BigInt): BigInt = a.gcd(b)
  def lcm(a: BigInt, b: BigInt): BigInt = a / a.gcd(b) * b
  def lcmAll(xs: Iterable[BigInt]): BigInt = xs.foldLeft(BigInt(1))(lcm)
  def gcdAll(xs: Iterable[BigInt]): BigInt = xs.foldLeft(BigInt(0))(gcd)

  /** All positive divisors of `n`, ascending. */
  def divisors(n: Long): Seq[Long] = {
    require(n > 0)
    val small = (1L to math.sqrt(n.toDouble).toLong).filter(n % _ == 0)
    (small ++ small.map(n / _)).distinct.sorted
  }
}

/** The cost model of §3.2.1 and Algorithm 1 (§3.2.2).
  *
  * For a window set with hyper-period `R = lcm(r_i)` and steady event rate
  * `η`, window `W_i` fires `n_i = 1 + ⌊(R − r_i)/s_i⌋` times per period
  * (Equation 1 / Figure 5, on any window). Computing an instance directly
  * from the raw stream costs `η·r_i` processed events; computing it from
  * sub-aggregates of an upstream window `W'` costs `M(W_i, W')` processed
  * sub-aggregates (Observation 1). Algorithm 1 keeps, per window, the
  * incoming WCG edge of minimum cost, yielding the min-cost WCG — a forest
  * (Theorem 7).
  *
  * Cost accounting for roots follows the paper's worked Examples 6–8: a
  * window computed from the raw stream (equivalently, parented at the
  * virtual root S⟨1,1⟩ of the augmented WCG) costs `n_i·η·r_i`; see
  * DESIGN.md "Interpretation choices".
  */
object CostModel {

  /** Hyper-period `R = lcm(r_1, …, r_n)` of a window set. */
  def hyperPeriod(windows: Seq[Window]): BigInt =
    NumberTheory.lcmAll(windows.map(w => BigInt(w.r)))

  /** Recurrence count `n_i = 1 + ⌊(R − r_i)/s_i⌋` of `w` (0 if `R < r_i`):
    * its instances `[m·s_i, m·s_i + r_i)` that end by `R`. On every window
    * with `r_i ≡ 0 mod s_i` (footnote 4) it is Equation 1.
    */
  def recurrenceCount(w: Window, bigR: BigInt): BigInt =
    (bigR - w.r + w.s).max(0) / w.s

  /** Cost of computing `w` from the raw stream: `n_w · η · r_w`. */
  def rootCost(w: Window, bigR: BigInt, eta: BigInt): BigInt =
    recurrenceCount(w, bigR) * eta * w.r

  /** Cost of computing `w` from sub-aggregates of its upstream `parent`:
    * `n_w · M(w, parent)` (Observation 1).
    */
  def edgeCost(w: Window, parent: Window, bigR: BigInt): BigInt =
    recurrenceCount(w, bigR) * w.multiplier(parent)

  /** Cost of `w` given an optional parent (None = raw stream). */
  def cost(w: Window, parent: Option[Window], bigR: BigInt, eta: BigInt): BigInt =
    parent.fold(rootCost(w, bigR, eta))(p => edgeCost(w, p, bigR))

  /** Baseline (BL) cost: every distinct window computed directly from the
    * stream (a repeated window is computed once, as in `minCostPlan`).
    */
  def baselineCost(windows: Seq[Window], eta: BigInt): BigInt = {
    val bigR = hyperPeriod(windows)
    windows.distinct.map(rootCost(_, bigR, eta)).sum
  }

  /** Algorithm 1: the min-cost WCG over `user ∪ factor` windows, with the
    * hyper-period taken over the *user* windows (factor windows are
    * auxiliary; their ranges divide into the user hyper-period by
    * construction, see §4.2). Factor windows from which no parent chain
    * leads to a user window are pruned — they would add cost without being
    * part of the query result.
    */
  def minCostPlan(user: Seq[Window], factor: Seq[Window], semantics: Semantics,
                  eta: BigInt): WcgPlan = {
    require(eta >= 1, s"event rate must be >= 1, got $eta")
    val userV   = user.toVector.distinct
    val factorV = factor.toVector.distinct.filterNot(userV.contains)
    val bigR    = hyperPeriod(userV)
    val wcg     = Wcg(userV ++ factorV, semantics)

    // Lines 2–7 of Algorithm 1: per window, pick the cheapest incoming edge
    // (or the raw stream). Ties break deterministically toward the coarsest
    // parent (largest r, then largest s) so plans are reproducible.
    val parentOf: Map[Window, Option[Window]] = wcg.windows.map { w =>
      val viaRoot: (BigInt, Option[Window]) = (rootCost(w, bigR, eta), None)
      val viaEdges = wcg.parentsOf(w).map(p => (edgeCost(w, p, bigR), Some(p): Option[Window]))
      val best = (viaRoot +: viaEdges).minBy { case (c, p) =>
        (c, p.fold(Long.MaxValue)(-_.r), p.fold(Long.MaxValue)(-_.s))
      }
      w -> best._2
    }.toMap

    // Keep a factor window iff it is an ancestor of a user window. Coverage
    // is a partial order (Theorem 2), so every parent chain ends at the
    // stream.
    val ancestors = userV.flatMap(u =>
      Iterator.iterate(parentOf(u))(_.flatMap(parentOf)).takeWhile(_.isDefined).flatten).toSet
    WcgPlan(userV, factorV.filter(ancestors), parentOf -- factorV.filterNot(ancestors),
      semantics, eta, bigR)
  }

  /** Algorithm 1 on the plain window set (no factor windows). */
  def minCostPlan(user: Seq[Window], semantics: Semantics, eta: BigInt): WcgPlan =
    minCostPlan(user, Nil, semantics, eta)
}

/** A min-cost WCG: the output of Algorithm 1 (and Algorithm 2). Each window
  * has at most one upstream parent (`None` = computed from the raw stream),
  * so the graph is a forest (Theorem 7). `factorWindows` are auxiliary
  * vertices whose results are not exposed to the user (§4).
  */
final case class WcgPlan(
    userWindows: Vector[Window],
    factorWindows: Vector[Window],
    parent: Map[Window, Option[Window]],
    semantics: Semantics,
    eta: BigInt,
    bigR: BigInt,
) {
  require((userWindows ++ factorWindows).forall(parent.contains),
    "every plan window needs a parent entry")

  /** All vertices of the forest (user + surviving factor windows). */
  def allWindows: Vector[Window] = userWindows ++ factorWindows

  /** Downstream consumers of `w` within the plan. */
  def childrenOf(w: Window): Vector[Window] =
    allWindows.filter(c => parent(c).contains(w))

  /** Windows computed directly from the raw stream. */
  def roots: Vector[Window] = allWindows.filter(parent(_).isEmpty)

  /** Per-window cost under the model of §3.2.1 / Observation 1. */
  def costOf(w: Window): BigInt = CostModel.cost(w, parent(w), bigR, eta)

  /** Total plan cost `C = Σ c_i`. */
  def totalCost: BigInt = allWindows.map(costOf).sum

  /** The windows grouped by depth in the forest, roots first, each level in
    * `allWindows` order: every pass peels the windows whose parent is gone.
    */
  def levels: Vector[Vector[Window]] =
    Vector.unfold(allWindows) { remaining =>
      Option.when(remaining.nonEmpty) {
        val ready = remaining.filter(w => parent(w).forall(p => !remaining.contains(p)))
        require(ready.nonEmpty, s"cycle in plan forest: $remaining")
        (ready, remaining.filterNot(ready.contains))
      }
    }

  /** Vertices in dataflow (topological) order: parents before children. */
  def topological: Vector[Window] = levels.flatten

  /** Forest sanity: no cycles, parents in-plan. Used by tests (Theorem 7). */
  def isForest: Boolean =
    scala.util.Try(topological).isSuccess &&
      parent.values.flatten.forall(allWindows.contains)

  /** The rewritten plan of §3.3 as an indented tree in the style of
    * Figure 2(b). The forest alone fixes it:
    *
    *  1. the source `Multicast` feeding the roots stays only when there are
    *     at least two roots;
    *  2. every window with children gets a `Multicast@W(r,s)` above them;
    *  3. the user windows feed `Union`, the last line. Factor windows are
    *     marked ` [factor]`: their results are not exposed (§4).
    *
    * `repro.exec.Executor.rewritten` runs the same dataflow.
    */
  def render: String = {
    val sb = new StringBuilder("Source\n")
    def line(depth: Int, text: String): Unit = sb ++= "  " * depth ++= text += '\n'
    def window(w: Window, depth: Int): Unit = {
      line(depth, s"Window(${w.r},${w.s})" + (if (factorWindows.contains(w)) " [factor]" else ""))
      val children = childrenOf(w)
      if (children.nonEmpty) {
        line(depth + 1, s"Multicast@$w")
        children.foreach(window(_, depth + 2))
      }
    }
    if (roots.size >= 2) {
      line(1, "Multicast")
      roots.foreach(window(_, 2))
    } else roots.foreach(window(_, 1))
    sb ++= "Union\n"
    sb.result()
  }
}
