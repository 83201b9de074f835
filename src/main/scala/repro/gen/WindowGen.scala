package repro.gen

import repro.core.{NumberTheory, Window}
import scala.util.Random

/** Random window-set generators of §5.2: RandomGen (Algorithm 5), ChainGen,
  * StarGen, and RandomGraphGen (Algorithm 6), each with a tumbling-only
  * variant for the "partitioned by" experiments. Deterministic in `seed`.
  *
  * The paper leaves `s_max`/`k_max` unspecified; defaults here are
  * `s_max = 10`, `k_max = 8` (documented in DESIGN.md). All generators keep
  * the paper's standing assumption r ≡ 0 (mod s) (footnote 4), as the
  * figure sets do; the planner prices any other window as well.
  */
final class WindowGen(seed: Long, val sMax: Long = 10, val kMax: Long = 8) {
  private val rnd = new Random(seed)

  /** Uniform integer in `[lo, hi]`. */
  private def uniform(lo: Long, hi: Long): Long =
    lo + (rnd.nextDouble() * (hi - lo + 1)).toLong.min(hi - lo)

  /** Algorithm 5: `s ← Random(sMin, sMax)`, `r ← Random({s, 2s, …, kMax·s})`. */
  def randomWindow(sMin: Long = 2): Window = {
    val s = uniform(sMin, math.max(sMin, sMax))
    val k = uniform(1, kMax)
    Window(k * s, s)
  }

  /** Algorithm 5 restricted to tumbling windows: `W⟨r, r⟩` with the same
    * range distribution (`r = k·s`).
    */
  def randomTumbling(sMin: Long = 2): Window = {
    val w = randomWindow(sMin)
    Window.tumbling(w.r)
  }

  private def distinctSet(n: Int, gen: () => Window): Vector[Window] = {
    val out = scala.collection.mutable.LinkedHashSet.empty[Window]
    var guard = 0
    while (out.size < n && guard < 10000) { out += gen(); guard += 1 }
    require(out.size == n, s"could not generate $n distinct windows")
    out.toVector
  }

  /** RandomGen: `n` distinct windows via Algorithm 5. */
  def randomSet(n: Int): Vector[Window] = distinctSet(n, () => randomWindow())

  /** RandomGen, tumbling variant. */
  def randomTumblingSet(n: Int): Vector[Window] =
    distinctSet(n, () => randomTumbling())

  /** ChainGen: windows `W_1, …, W_n` with `W_{i+1} ≼ W_i` (each covered by
    * its predecessor). The next slide is a small multiple of the previous
    * one and the next range satisfies both the coverage congruence and
    * r ≡ 0 (mod s).
    */
  def chainSet(n: Int): Vector[Window] = {
    var w = randomWindow()
    val out = scala.collection.mutable.LinkedHashSet(w)
    var guard = 0
    while (out.size < n && guard < 10000) {
      guard += 1
      val a = if (w.s >= 4 * sMax) 1L else uniform(1, 2) // keep slides bounded
      val s2 = w.s * a
      val cMin = w.k / a + 1 // ensures r2 = c·s2 > r and (r2 − r) ≡ 0 (mod s)
      val c = uniform(cMin, cMin + 3)
      val w2 = Window(c * s2, s2)
      if (w2.coveredBy(w) && !out.contains(w2)) { out += w2; w = w2 }
    }
    require(out.size == n, s"could not generate chain of $n windows")
    out.toVector
  }

  /** ChainGen, tumbling variant: each range a proper multiple of the
    * previous (tumbling coverage ⇔ range divisibility).
    */
  def chainTumblingSet(n: Int): Vector[Window] = {
    var w = randomTumbling()
    val out = scala.collection.mutable.LinkedHashSet(w)
    while (out.size < n) {
      val w2 = Window.tumbling(w.r * uniform(2, 4))
      out += w2; w = w2
    }
    out.toVector
  }

  /** StarGen: `W_2, …, W_n` each covered by the hub `W_1`. */
  def starSet(n: Int): Vector[Window] = {
    val hub = randomWindow()
    val out = scala.collection.mutable.LinkedHashSet(hub)
    var guard = 0
    while (out.size < n && guard < 10000) {
      guard += 1
      val a = uniform(1, 3)
      val s2 = hub.s * a
      val cMin = hub.k / a + 1
      val c = uniform(cMin, cMin + kMax)
      val w2 = Window(c * s2, s2)
      if (w2.coveredBy(hub) && !out.contains(w2)) out += w2
    }
    require(out.size == n, s"could not generate star of $n windows")
    out.toVector
  }

  /** StarGen, tumbling variant: every satellite range a multiple of the
    * hub's range.
    */
  def starTumblingSet(n: Int): Vector[Window] = {
    val hub = randomTumbling()
    val out = scala.collection.mutable.LinkedHashSet(hub)
    var guard = 0
    while (out.size < n && guard < 10000) {
      guard += 1
      val w2 = Window.tumbling(hub.r * uniform(2, 2 * kMax))
      if (!out.contains(w2)) out += w2
    }
    require(out.size == n, s"could not generate tumbling star of $n windows")
    out.toVector
  }

  /** Algorithm 6: a DAG of windows grouped into `levels` levels — the base
    * level has `base` windows, each level above adds `delta` more; a window
    * at level l covers a random subset (probability `p`) of level l−1.
    * Within a level no window covers another. The new slide is a multiple
    * of the lcm of the chosen subset's slides (DESIGN.md notes this
    * tightening of `RandomWindow(s_min, …)`, necessary for the intended
    * coverage edges to exist).
    */
  def dagSet(levels: Int, base: Int, delta: Int, p: Double): Vector[Window] = {
    require(levels >= 1 && base >= 1)
    val all = scala.collection.mutable.LinkedHashSet.empty[Window]

    // Line 5/16 of Algorithm 6: the new window must not be *covered by* an
    // existing same-level window (one direction, as in the paper).
    def notCoveredWithin(w: Window, level: Seq[Window]): Boolean =
      level.forall(u => !w.coveredBy(u))

    // Base level L0.
    var prev = Vector.empty[Window]
    var guard = 0
    while (prev.size < base && guard < 10000) {
      guard += 1
      val w = randomWindow()
      if (notCoveredWithin(w, prev) && !all.contains(w)) { prev :+= w; all += w }
    }
    require(prev.size == base, "could not generate DAG base level")

    for (l <- 1 until levels) {
      val want = base + delta * l
      var cur = Vector.empty[Window]
      var g2 = 0
      while (cur.size < want && g2 < 50000) {
        g2 += 1
        val subset = prev.filter(_ => rnd.nextDouble() < p)
        if (subset.nonEmpty) {
          val sBase = NumberTheory.lcmAll(subset.map(w => BigInt(w.s)))
          // Slide multiplier 1/2/3 gives incomparable slides within a
          // level; the cap keeps hyper-periods manageable.
          if (sBase <= 64 * sMax) {
            val s2 = (sBase * uniform(1, 3)).toLong
            val rMax = subset.map(_.r).max
            val cMin = rMax / s2 + 1
            val c = uniform(cMin, cMin + kMax)
            val w = Window(c * s2, s2)
            val covered = subset.forall(u => w.coveredBy(u))
            if (covered && notCoveredWithin(w, cur) && !all.contains(w)) {
              cur :+= w; all += w
            }
          }
        }
      }
      require(cur.size == want, s"could not generate DAG level $l")
      prev = cur
    }
    all.toVector
  }
}
