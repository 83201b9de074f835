package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}

/** Brute-force interval semantics used to validate the constant-time
  * predicates of §2 (Theorems 1, 3, 4).
  */
object BruteForce {
  /** Intervals of `w2` wholly inside `[a, b)` — the covering set I_{a,b}. */
  def coveringSet(w2: Window, a: Long, b: Long): Seq[(Long, Long)] =
    (0L to b / w2.s).map(m => (m * w2.s, m * w2.s + w2.r))
      .filter { case (u, v) => u >= a && v <= b }

  /** Definition 1 checked on the first `n` intervals of `w1`: anchored
    * intervals at both ends, plus the union property of Definition 3.
    */
  def covered(w1: Window, w2: Window, n: Int = 6): Boolean =
    w1 == w2 || (w1.r > w2.r && (0 until n).forall { m1 =>
      val (a, b) = w1.interval(m1.toLong)
      val cs = coveringSet(w2, a, b)
      cs.exists(_._1 == a) && cs.exists(_._2 == b) &&
        (a until b).forall(t => cs.exists { case (u, v) => u <= t && t < v })
    })

  /** Definition 5 checked on the first `n` intervals: covered, and each
    * covering set pairwise disjoint.
    */
  def partitioned(w1: Window, w2: Window, n: Int = 6): Boolean =
    w1 == w2 || (covered(w1, w2, n) && (0 until n).forall { m1 =>
      val (a, b) = w1.interval(m1.toLong)
      coveringSet(w2, a, b).combinations(2).forall {
        case Seq((u1, v1), (u2, v2)) => v1 <= u2 || v2 <= u1
      }
    })

  /** Covering multiplier measured on interval `m1`. */
  def multiplier(w1: Window, w2: Window, m1: Long): Int = {
    val (a, b) = w1.interval(m1)
    coveringSet(w2, a, b).size
  }

  /** Recurrence count: instances `[m·s, m·s + r)` with `m·s + r ≤ R`. */
  def recurrences(w: Window, bigR: Long): Long =
    (0L to bigR / w.s).count(m => m * w.s + w.r <= bigR).toLong

  /** All intervals `[a, b)` of `w` with `b ≤ horizon` (the complete
    * instances within `[0, horizon]`, as the recurrence count counts them):
    * the instances whose ends must lie on slice edges for a slicing of the
    * window to recombine exactly.
    */
  def intervalsWithin(w: Window, horizon: Long): Seq[(Long, Long)] =
    Iterator.from(0).map(m => w.interval(m.toLong)).takeWhile(_._2 <= horizon).toSeq
}

class WindowSpec extends AnyFunSuite with SeededProps {

  private val smallGrid: Seq[Window] =
    for { s <- 1L to 8L; r <- s to 16L } yield Window(r, s)

  // ---- basics -------------------------------------------------------------

  test("window requires 0 < s <= r") {
    assertThrows[IllegalArgumentException](Window(5, 6))
    assertThrows[IllegalArgumentException](Window(5, 0))
    assertThrows[IllegalArgumentException](Window(0, 1))
  }

  test("tumbling iff r == s") {
    assert(Window(10, 10).isTumbling)
    assert(!Window(10, 2).isTumbling)
    assert(Window.tumbling(7) == Window(7, 7))
  }

  test("interval representation of W(10,2) is [0,10), [2,12), [4,14), ...") {
    val w = Window(10, 2)
    assert(w.interval(0) == (0L, 10L))
    assert(w.interval(1) == (2L, 12L))
    assert(w.interval(2) == (4L, 14L))
  }

  test("intervalsWithin returns complete instances only") {
    assert(BruteForce.intervalsWithin(Window(10, 10), 35) ==
      Seq((0L, 10L), (10L, 20L), (20L, 30L)))
    assert(BruteForce.intervalsWithin(Window(10, 2), 14) == Seq((0L, 10L), (2L, 12L), (4L, 14L)))
  }

  // ---- Example 2 / 3: coverage -------------------------------------------

  test("Example 2/3: W(10,2) is covered by W(8,2)") {
    assert(Window(10, 2).coveredBy(Window(8, 2)))
    assert(BruteForce.covered(Window(10, 2), Window(8, 2)))
  }

  test("coverage requires s1 multiple of s2 (Theorem 1 condition 1)") {
    assert(!Window(10, 3).coveredBy(Window(8, 2)))
  }

  test("coverage requires r1 - r2 multiple of s2 (Theorem 1 condition 2)") {
    assert(!Window(11, 2).coveredBy(Window(8, 2)))
  }

  test("a window is covered by and partitioned by itself (special case)") {
    val w = Window(10, 2)
    assert(w.coveredBy(w) && w.partitionedBy(w))
  }

  test("coverage demands strictly larger range for distinct windows") {
    assert(!Window(8, 2).coveredBy(Window(8, 4)))
    assert(!Window(8, 2).coveredBy(Window(10, 2)))
  }

  // ---- Theorem 1 ≡ brute force -------------------------------------------

  test("Theorem 1: coveredBy agrees with brute-force interval semantics (sampled)") {
    sampled(400) { rnd => (anyWindow(rnd), anyWindow(rnd)) } { case (w1, w2) =>
      assert(w1.coveredBy(w2) == BruteForce.covered(w1, w2), s"$w1 vs $w2")
    }
  }

  test("Theorem 1 exhaustive over a small grid") {
    for (w1 <- smallGrid; w2 <- smallGrid)
      assert(w1.coveredBy(w2) == BruteForce.covered(w1, w2), s"$w1 vs $w2")
  }

  // ---- Theorem 2: partial order ------------------------------------------

  test("Theorem 2: reflexivity (scalacheck)") {
    val gen = for { s <- Gen.choose(1L, 12L); r <- Gen.choose(s, 24L) } yield Window(r, s)
    val res = SCTest.check(SCTest.Parameters.default,
      Prop.forAll(gen)(w => w.coveredBy(w) && w.partitionedBy(w)))
    assert(res.passed, res.status.toString)
  }

  test("Theorem 2: antisymmetry over the grid") {
    for (w1 <- smallGrid; w2 <- smallGrid)
      if (w1.coveredBy(w2) && w2.coveredBy(w1)) assert(w1 == w2)
  }

  test("Theorem 2: transitivity over the grid") {
    val covers = smallGrid.map(w1 => w1 -> smallGrid.filter(w1.coveredBy).toSet).toMap
    for (w1 <- smallGrid; w2 <- covers(w1); w3 <- covers(w2))
      assert(covers(w1).contains(w3), s"$w1 <= $w2 <= $w3 but not $w1 <= $w3")
  }

  // ---- Theorem 3: covering multiplier ------------------------------------

  test("Theorem 3: multiplier matches brute-force covering-set size (sampled)") {
    sampled(400) { rnd => (anyWindow(rnd), anyWindow(rnd)) } { case (w1, w2) =>
      if (w1 != w2 && w1.coveredBy(w2)) {
        val expected = 1 + (w1.r - w2.r) / w2.s
        assert(w1.multiplier(w2) == expected)
        (0L to 4L).foreach(m1 =>
          assert(BruteForce.multiplier(w1, w2, m1) == expected,
            s"interval $m1 of $w1 over $w2"))
      }
    }
  }

  test("Example 6 multipliers: M(W2,W1)=2, M(W3,W1)=3, M(W4,W1)=4, M(W4,W2)=2") {
    val Seq(w1, w2, w3, w4) = Seq(10L, 20L, 30L, 40L).map(Window.tumbling)
    assert(w2.multiplier(w1) == 2)
    assert(w3.multiplier(w1) == 3)
    assert(w4.multiplier(w1) == 4)
    assert(w4.multiplier(w2) == 2)
  }

  test("multiplier demands coverage") {
    assertThrows[IllegalArgumentException](Window(10, 3).multiplier(Window(8, 2)))
  }

  // ---- Theorem 4 / Example 5: partitioning --------------------------------

  test("Example 5: W(10,2) is covered but not partitioned by W(8,2)") {
    assert(Window(10, 2).coveredBy(Window(8, 2)))
    assert(!Window(10, 2).partitionedBy(Window(8, 2)))
  }

  test("Figure 4: W(4,2) partitioned by W(2,2); covered (not partitioned) by W(3,1)") {
    assert(Window(4, 2).partitionedBy(Window(2, 2)))
    assert(Window(4, 2).coveredBy(Window(3, 1)))
    assert(!Window(4, 2).partitionedBy(Window(3, 1)))
  }

  test("Theorem 4: partitionedBy agrees with brute-force tiling (sampled)") {
    sampled(400) { rnd => (anyWindow(rnd), anyWindow(rnd)) } { case (w1, w2) =>
      assert(w1.partitionedBy(w2) == BruteForce.partitioned(w1, w2), s"$w1 vs $w2")
    }
  }

  test("Theorem 4 exhaustive over a small grid") {
    val grid = for { s <- 1L to 6L; r <- s to 12L } yield Window(r, s)
    for (w1 <- grid; w2 <- grid)
      assert(w1.partitionedBy(w2) == BruteForce.partitioned(w1, w2), s"$w1 vs $w2")
  }

  test("partitioning implies coverage") {
    for (w1 <- smallGrid; w2 <- smallGrid)
      if (w1.partitionedBy(w2)) assert(w1.coveredBy(w2))
  }

  // ---- semantics objects --------------------------------------------------

  test("Semantics.CoveredBy and PartitionedBy delegate to the predicates") {
    val (w1, w2) = (Window(10, 2), Window(8, 2))
    assert(Semantics.CoveredBy.relates(w1, w2))
    assert(!Semantics.PartitionedBy.relates(w1, w2))
    assert(Semantics.PartitionedBy.relates(Window(20, 10), Window(5, 5)))
  }

  test("virtual root S(1,1) covers and partitions every window with r > 1") {
    sampled(200)(anyWindow(_)) { w =>
      if (w.r > 1) {
        assert(w.coveredBy(Window.virtualRoot))
        assert(w.partitionedBy(Window.virtualRoot))
      }
    }
  }
}
