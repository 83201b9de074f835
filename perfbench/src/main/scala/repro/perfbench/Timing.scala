package repro.perfbench

/** Timing helpers shared by the workloads. */
object Timing {
  def seconds[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** `xs` rotated left by `by` places: round `i` of a timed loop runs the
    * plans in `rotate(plans, i)`, so no plan always runs first or after the
    * same neighbour.
    */
  def rotate[A](xs: Seq[A], by: Int): Seq[A] = {
    val k = by % xs.size
    xs.drop(k) ++ xs.take(k)
  }

  /** Run `rounds` set-up rounds and return the last round's state with the
    * median round time in seconds. Repeating the set-up makes `setup_s` a
    * median, so a single slow start does not decide it; the first round also
    * pays for class loading and the JIT.
    */
  def setupRounds[S](rounds: Int)(round: Int => S): (S, Double) = {
    var state: Option[S] = None
    val times = (0 until rounds).map { i =>
      val (s, t) = seconds(round(i))
      state = Some(s)
      t
    }
    (state.get, Stats.median(times))
  }

  /** Run `round(i)` for i = 0, 1, … until `budget` seconds have passed,
    * at least `minRounds` times.
    */
  def loopFor(budget: Double, minRounds: Int = 1)(round: Int => Unit): Int = {
    val t0 = System.nanoTime()
    var i = 0
    while (i < minRounds || (System.nanoTime() - t0) / 1e9 < budget) {
      round(i); i += 1
    }
    i
  }
}
