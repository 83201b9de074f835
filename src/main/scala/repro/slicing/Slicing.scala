package repro.slicing

import repro.core.{NumberTheory, Window}

/** A residue class `{ t ≥ 0 : t ≡ a (mod m) }` — the positions of slice
  * edges of a sliced window recur with the window's period, so edge sets
  * are finite unions of these.
  */
final case class Progression(a: BigInt, m: BigInt) {
  require(m > 0 && a >= 0 && a < m, s"bad progression a=$a m=$m")
  def contains(t: BigInt): Boolean = t >= 0 && t % m == a

  /** True iff every member of `this` is a member of `that`. */
  def subsetOf(that: Progression): Boolean =
    m % that.m == 0 && a % that.m == that.a
}

/** Window slicing (§5.1): paned windows [Li et al. 2005] and paired windows
  * [Krishnamurthy et al. 2006], their composition into a shared sliced
  * window, and the cost model of Table 1.
  *
  * Slice edges are represented as residue classes. Our interval convention
  * anchors a window's instances at `m·s` (not at the firing time), so the
  * paired edges sit at residues `{0, r mod s}` — a pure time-shift of the
  * textbook `Y(z1, z2)` with `z1 = s − (r mod s)`, `z2 = r mod s`, with
  * identical slice counts and costs (DESIGN.md). The shared techniques'
  * final cost rests on one number, the count `E` of composed edges per
  * slicing period, which `countUnion` computes exactly over the classes.
  */
object Slicing {
  import NumberTheory._

  /** Paned slices: uniform panes of size `g = gcd(r, s)`; edges at every
    * multiple of `g`.
    */
  def panedEdges(w: Window): Seq[Progression] =
    Seq(Progression(0, gcd(w.r, w.s)))

  /** Paired slices: per period `s`, two slices of sizes `z2 = r mod s` and
    * `z1 = s − z2` (one slice when `s | r`); edges at residues
    * `{0, r mod s} (mod s)`.
    */
  def pairedEdges(w: Window): Seq[Progression] = {
    val z2 = w.r % w.s
    if (z2 == 0) Seq(Progression(0, w.s))
    else Seq(Progression(0, w.s), Progression(z2, w.s))
  }

  /** Intersection of two residue classes via CRT: nonempty iff the residues
    * agree modulo `g = gcd(m1, m2)`; then the single class
    * `x = a1 + m1·k (mod lcm(m1, m2))`, where `k` solves
    * `(m1/g)·k ≡ (a2 − a1)/g (mod m2/g)` through the inverse of `m1/g`.
    */
  def intersect(p: Progression, q: Progression): Option[Progression] = {
    val g = gcd(p.m, q.m)
    if ((q.a - p.a) % g != 0) None
    else {
      val n = q.m / g
      val k = (q.a - p.a) / g * (p.m / g).modInverse(n) % n
      Some(Progression((p.a + p.m * k).mod(p.m * n), p.m * n))
    }
  }

  /** `|union of progressions ∩ [0, period)|` — the composed-slice edge count
    * `E` of Table 1, by the recursion `|P ∪ R| = |P| + |⋃R| − |⋃_{q∈R} (P ∩ q)|`
    * where each `P ∩ q` is one CRT class or none. Every level first drops
    * the classes another class contains; `period` must be a multiple of
    * every modulus that remains.
    */
  def countUnion(progs0: Seq[Progression], period: BigInt): BigInt = {
    val distinct = progs0.distinct
    // Absorption: drop any class wholly contained in another (mutual
    // containment implies equality, already removed by distinct).
    val progs = distinct.filterNot(p => distinct.exists(q => q != p && p.subsetOf(q)))
    progs.foreach(p => require(period % p.m == 0, s"period $period not multiple of ${p.m}"))
    progs match {
      case p +: rest =>
        period / p.m + countUnion(rest, period) - countUnion(rest.flatMap(intersect(p, _)), period)
      case _ => BigInt(0)
    }
  }

  /** Costs of the Table 1 techniques over the slicing period `S = lcm(s_i)`
    * with `T = η·S` input events: `(partial, final)` pairs.
    */
  final case class SlicingCosts(partial: BigInt, finalAgg: BigInt) {
    def total: BigInt = partial + finalAgg
  }

  /** Slicing period `S = lcm(s_1, …, s_n)`. */
  def slicingPeriod(windows: Seq[Window]): BigInt =
    NumberTheory.lcmAll(windows.map(w => BigInt(w.s)))

  /** Unshared slicing: partial `n·T`, final `Σ (S/s_i)·k_i` with `k_i` the
    * slices per instance of window `i`.
    */
  private def unshared(windows: Seq[Window], eta: BigInt)(
      slicesPerInstance: Window => BigInt): SlicingCosts = {
    val s = slicingPeriod(windows)
    SlicingCosts(eta * s * windows.size, windows.map(w => (s / w.s) * slicesPerInstance(w)).sum)
  }

  /** Unshared paned: `k_i = r_i/g_i`. */
  def unsharedPaned(windows: Seq[Window], eta: BigInt): SlicingCosts =
    unshared(windows, eta)(w => w.r / NumberTheory.gcd(w.r, w.s))

  /** Unshared paired: `k_i = ⌈2·r_i/s_i⌉`. */
  def unsharedPaired(windows: Seq[Window], eta: BigInt): SlicingCosts =
    unshared(windows, eta)(w => BigInt((2 * w.r + w.s - 1) / w.s))

  /** Shared slicing: partial `T`, final `Σ E·(r_i/s_i)` where `E` is the
    * count of the composed slice edges over `S`.
    */
  private def shared(windows: Seq[Window], eta: BigInt)(
      edges: Window => Seq[Progression]): SlicingCosts = {
    val s = slicingPeriod(windows)
    val e = countUnion(windows.flatMap(edges), s)
    SlicingCosts(eta * s, windows.map(w => e * w.r / w.s).sum)
  }

  /** Shared paned: `E` over the windows' paned edges. */
  def sharedPaned(windows: Seq[Window], eta: BigInt): SlicingCosts =
    shared(windows, eta)(panedEdges)

  /** Shared paired: `E` over the windows' paired edges. */
  def sharedPaired(windows: Seq[Window], eta: BigInt): SlicingCosts =
    shared(windows, eta)(pairedEdges)
}
