package repro.gen

import repro.core.{NumberTheory, Window}
import scala.util.Random

/** Random window-set generators of §5.2: RandomGen (Algorithm 5), ChainGen,
  * StarGen, and RandomGraphGen (Algorithm 6), each with a tumbling-only
  * variant for the "partitioned by" experiments. Deterministic in `seed`.
  *
  * The paper leaves `s_min`/`s_max`/`k_max` unspecified; here `s_min = 2`
  * and the defaults are `s_max = 10`, `k_max = 8` (documented in DESIGN.md).
  * All generators keep the paper's standing assumption r ≡ 0 (mod s)
  * (footnote 4), as the figure sets do; the planner prices any other window
  * as well.
  */
final class WindowGen(seed: Long, val sMax: Long = 10, val kMax: Long = 8) {
  private val rnd = new Random(seed)

  /** Uniform integer in `[lo, hi]`. */
  private def uniform(lo: Long, hi: Long): Long =
    lo + (rnd.nextDouble() * (hi - lo + 1)).toLong.min(hi - lo)

  /** Algorithm 5: `s ← Random(2, sMax)`, `r ← Random({s, 2s, …, kMax·s})`. */
  def randomWindow(): Window = {
    val s = uniform(2, math.max(2, sMax))
    Window(uniform(1, kMax) * s, s)
  }

  /** Algorithm 5 restricted to tumbling windows: `W⟨r, r⟩` with the same
    * range distribution (`r = k·s`).
    */
  def randomTumbling(): Window = Window.tumbling(randomWindow().r)

  /** A window of slide `s` whose range is one of the `spread + 1` multiples
    * of `s` just above `r`. By Theorem 1 it is covered by every window `u`
    * with `u.r ≤ r`, `u.s | u.r` and `u.s | s`.
    */
  private def above(r: Long, s: Long, spread: Long): Window = {
    val c = uniform(r / s + 1, r / s + 1 + spread)
    Window(c * s, s)
  }

  /** The draw loop of every generator: from `prefix`, each try adds the
    * window `step` draws from the windows so far, if any and if new, until
    * there are `n`; gives up after `tries` tries.
    */
  private def draw(what: String, n: Int, prefix: Vector[Window] = Vector.empty,
                   tries: Int = 10000)(step: Vector[Window] => Option[Window]): Vector[Window] = {
    var out = prefix
    var t = 0
    while (out.size < n && t < tries) {
      t += 1
      step(out).filterNot(out.contains).foreach(w => out :+= w)
    }
    require(out.size == n, s"could not generate $what")
    out
  }

  /** RandomGen: `n` distinct windows via Algorithm 5. */
  def randomSet(n: Int): Vector[Window] =
    draw(s"$n distinct windows", n)(_ => Some(randomWindow()))

  /** RandomGen, tumbling variant. */
  def randomTumblingSet(n: Int): Vector[Window] =
    draw(s"$n distinct windows", n)(_ => Some(randomTumbling()))

  /** ChainGen: windows `W_1, …, W_n` with `W_{i+1} ≼ W_i`: the last slide,
    * doubled at random while slides stay small, and one of the four ranges
    * of that slide just above the last range.
    */
  def chainSet(n: Int): Vector[Window] =
    draw(s"chain of $n windows", n, Vector(randomWindow())) { out =>
      val w = out.last
      Some(above(w.r, w.s * (if (w.s >= 4 * sMax) 1L else uniform(1, 2)), 3))
    }

  /** ChainGen, tumbling variant: each range a proper multiple of the
    * previous (tumbling coverage ⇔ range divisibility).
    */
  def chainTumblingSet(n: Int): Vector[Window] =
    draw(s"tumbling chain of $n windows", n, Vector(randomTumbling())) { out =>
      Some(Window.tumbling(out.last.r * uniform(2, 4)))
    }

  /** StarGen: `W_2, …, W_n` each covered by the hub `W_1`. */
  def starSet(n: Int): Vector[Window] = {
    val hub = randomWindow()
    draw(s"star of $n windows", n, Vector(hub)) { _ =>
      Some(above(hub.r, hub.s * uniform(1, 3), kMax))
    }
  }

  /** StarGen, tumbling variant: every satellite range a multiple of the
    * hub's range.
    */
  def starTumblingSet(n: Int): Vector[Window] = {
    val hub = randomTumbling()
    draw(s"tumbling star of $n windows", n, Vector(hub)) { _ =>
      Some(Window.tumbling(hub.r * uniform(2, 2 * kMax)))
    }
  }

  /** Algorithm 6: a DAG of windows grouped into `levels` levels — the base
    * level has `base` windows, each level above adds `delta` more; a window
    * at level l is covered by each window of a random subset (probability
    * `p`) of level l−1, and by no earlier window of its own level. The new
    * slide is a multiple of the lcm of the chosen subset's slides (DESIGN.md
    * notes this tightening of `RandomWindow(s_min, …)`, necessary for the
    * intended coverage edges to exist).
    */
  def dagSet(levels: Int, base: Int, delta: Int, p: Double): Vector[Window] = {
    require(levels >= 1 && base >= 1)
    // One level of `size` windows after the windows `done` of the levels
    // below. Lines 5/16 of Algorithm 6: a new window must not be *covered
    // by* a window of its own level (one direction, as in the paper).
    def level(done: Vector[Window], size: Int, tries: Int, what: String)(
        next: => Option[Window]): Vector[Window] =
      draw(what, done.size + size, done, tries) { out =>
        next.filter(w => out.drop(done.size).forall(u => !w.coveredBy(u)))
      }

    val l0 = level(Vector.empty, base, 10000, "DAG base level")(Some(randomWindow()))
    (1 until levels).foldLeft(l0) { (done, l) =>
      val prev = done.takeRight(base + delta * (l - 1))
      level(done, base + delta * l, 50000, s"DAG level $l") {
        val subset = prev.filter(_ => rnd.nextDouble() < p)
        val sBase = NumberTheory.lcmAll(subset.map(w => BigInt(w.s)))
        // Slide multiplier 1/2/3 gives incomparable slides within a level;
        // the cap keeps hyper-periods manageable.
        Option.when(subset.nonEmpty && sBase <= 64 * sMax)(
          above(subset.map(_.r).max, (sBase * uniform(1, 3)).toLong, kMax))
      }
    }
  }
}
