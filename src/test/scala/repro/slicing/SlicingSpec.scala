package repro.slicing

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{BruteForce, NumberTheory, SeededProps, Window}
import repro.jobs.Table1Job

class SlicingSpec extends AnyFunSuite with SeededProps {

  // ---- slice shapes -------------------------------------------------------

  test("paned edges: panes of size gcd(r, s)") {
    assert(Slicing.panedEdges(Window(10, 4)) == Seq(Progression(0, 2)))
    assert(Slicing.panedEdges(Window(12, 4)) == Seq(Progression(0, 4)))
    assert(Slicing.panedEdges(Window(7, 3)) == Seq(Progression(0, 1)))
  }

  test("paired edges: two slices z2 = r mod s, z1 = s - z2 per period") {
    assert(Slicing.pairedEdges(Window(10, 4)).toSet ==
      Set(Progression(0, 4), Progression(2, 4)))
  }

  test("paired edges collapse to one slice for tumbling-aligned windows (s | r)") {
    assert(Slicing.pairedEdges(Window(12, 4)) == Seq(Progression(0, 4)))
    assert(Slicing.pairedEdges(Window(8, 8)) == Seq(Progression(0, 8)))
  }

  test("paired never has more slices than paned (Krishnamurthy et al.)") {
    sampled(300)(anyWindow(_)) { w =>
      val panedPerPeriod = w.s / NumberTheory.gcd(w.r, w.s).toLong
      assert(Slicing.pairedEdges(w).size <= panedPerPeriod, s"$w")
    }
  }

  // ---- progressions -------------------------------------------------------

  test("progression membership and subset") {
    val p = Progression(2, 6)
    assert(p.contains(2) && p.contains(8) && !p.contains(4) && !p.contains(-4))
    assert(Progression(2, 6).subsetOf(Progression(2, 6)))
    assert(Progression(2, 6).subsetOf(Progression(0, 2)))
    assert(!Progression(2, 6).subsetOf(Progression(1, 2)))
  }

  test("progression validation") {
    assertThrows[IllegalArgumentException](Progression(6, 6))
    assertThrows[IllegalArgumentException](Progression(-1, 6))
    assertThrows[IllegalArgumentException](Progression(0, 0))
  }

  test("CRT intersection: compatible classes") {
    assert(Slicing.intersect(Progression(2, 6), Progression(0, 4))
      .contains(Progression(8, 12)))
    assert(Slicing.intersect(Progression(0, 2), Progression(0, 3))
      .contains(Progression(0, 6)))
  }

  test("CRT intersection: incompatible classes are empty") {
    assert(Slicing.intersect(Progression(1, 6), Progression(0, 2)).isEmpty)
  }

  test("CRT intersection equals the brute-force common members on small moduli") {
    sampled(300) { rnd =>
      def prog() = { val m = 1 + rnd.nextLong(30); Progression(rnd.nextLong(m), m) }
      (prog(), prog())
    } { case (p, q) =>
      val l = NumberTheory.lcm(p.m, q.m)
      val common = (0L until l.toLong).filter(t => p.contains(t) && q.contains(t))
      assert(Slicing.intersect(p, q) == common.headOption.map(Progression(_, l)), s"$p ∩ $q")
    }
  }

  test("CRT intersection at scale: coprime 10^9 and 10^9+7, and an lcm past 2^63") {
    // The result's modulus is the lcm; its first few members lie in both
    // classes, and their neighbours do not.
    def check(p: Progression, q: Progression): Unit = {
      val x = Slicing.intersect(p, q).get
      assert(x.m == NumberTheory.lcm(p.m, q.m), s"$p ∩ $q = $x")
      (0 until 5).map(i => x.a + x.m * i).foreach { t =>
        assert(p.contains(t) && q.contains(t), s"$t of $p ∩ $q = $x")
        assert(Seq(t - 1, t + 1).forall(u => !(p.contains(u) && q.contains(u))), s"$t of $p ∩ $q = $x")
      }
    }
    val (m1, m2) = (BigInt(1000000000L), BigInt(1000000007L))
    check(Progression(123456789, m1), Progression(987654321, m2))
    check(Progression(m1 - 1, m1), Progression(0, m2))
    // Slides 6·(2^31 − 1) and 10·(2^31 + 11): gcd 2, lcm 30·(2^31 − 1)(2^31 + 11) > 2^63.
    val (s1, s2) = (BigInt(6) * (BigInt(2).pow(31) - 1), BigInt(10) * (BigInt(2).pow(31) + 11))
    assert(NumberTheory.lcm(s1, s2) > BigInt(Long.MaxValue))
    check(Progression(5, s1), Progression(7, s2))
    check(Progression(s1 - 1, s1), Progression(s2 - 3, s2))
    assert(Slicing.intersect(Progression(4, s1), Progression(7, s2)).isEmpty) // parity differs
  }

  test("countUnion agrees between sieve and inclusion-exclusion") {
    sampled(100) { rnd =>
      val n = 1 + rnd.nextInt(5)
      Vector.fill(n) {
        val m = 1 + rnd.nextLong(12)
        Progression(rnd.nextLong(m), m)
      }
    } { progs =>
      val period = NumberTheory.lcmAll(progs.map(_.m))
      val bySieve = Slicing.countUnion(progs, period) // one period
      // Brute force on the same period.
      val brute = (0L until period.toLong).count(t => progs.exists(_.contains(t)))
      assert(bySieve == brute, s"$progs over $period")
      // A multiple of the period above 2^22: counts scale linearly with the
      // number of repetitions.
      val big = period * ((1 << 22) / period + 1)
      assert(Slicing.countUnion(progs, big) == BigInt(brute) * (big / period))
    }
  }

  test("countUnion drops contained classes before it checks the period") {
    // 0 mod 14 lies inside 0 mod 2, so the period 6 need not be a multiple
    // of 14; the union in [0, 6) is {0, 1, 2, 4}.
    assert(Slicing.countUnion(Seq(Progression(0, 2), Progression(0, 14), Progression(1, 6)), 6) == 4)
    assertThrows[IllegalArgumentException](Slicing.countUnion(Seq(Progression(0, 4)), 6))
  }

  // ---- Table 1 cost formulas ---------------------------------------------

  private val ex1 = Seq(10L, 20L, 30L, 40L).map(Window.tumbling)

  test("slicing period S = lcm of slides") {
    assert(Slicing.slicingPeriod(ex1) == 120)
    assert(Slicing.slicingPeriod(Seq(Window(10, 4), Window(12, 6))) == 12)
  }

  test("Table 1 unshared paned on Example 1: partial nT, final per formula") {
    val c = Slicing.unsharedPaned(ex1, 1)
    assert(c.partial == 4 * 120) // n*T with T = eta*S = 120
    // Σ (S/s_i)·(r_i/g_i): tumbling ⇒ g=s, r/g=1 ⇒ Σ S/s_i = 12+6+4+3
    assert(c.finalAgg == 25)
  }

  test("Table 1 unshared paired on Example 1: ceil(2r/s) = 2 per window") {
    val c = Slicing.unsharedPaired(ex1, 1)
    assert(c.partial == 480)
    assert(c.finalAgg == 2 * 25)
  }

  test("Table 1 shared paned/paired on Example 1: partial T, E from composed edges") {
    // Composed edges of tumbling {10,20,30,40} = multiples of 10 in [0,120): E=12.
    val sp = Slicing.sharedPaned(ex1, 1)
    assert(sp.partial == 120)
    assert(sp.finalAgg == 12 * (1 + 1 + 1 + 1))
    assert(Slicing.sharedPaired(ex1, 1).total == sp.total) // tumbling: same slices
  }

  // S, then (partial, final) of the unshared paned, unshared paired, shared
  // paned and shared paired rows, of each set Table1Job prints, at eta=1.
  // Example-1 set: as derived in the tests above. Hopping set {W(10,2),
  // W(12,4), W(30,6), W(16,8)}: S = lcm(2,4,6,8) = 24, partial nT = 4·24
  // unshared and T = 24 shared; unshared paned final Σ (S/s)(r/g) with
  // g = 2, 4, 6, 8 is 12·5 + 6·3 + 4·5 + 3·2 = 104; unshared paired final
  // Σ (S/s)⌈2r/s⌉ = 12·10 + 6·6 + 4·10 + 3·4 = 208; shared final E·Σ r/s
  // with E = 12 composed edges (the multiples of 2) is 12·(5+3+5+2) = 180
  // for paned and paired alike.
  private val table1 = Map(
    "Example-1 tumbling set" -> (120, Seq((480, 25), (480, 50), (120, 48), (120, 48))),
    "hopping set"            -> (24, Seq((96, 104), (96, 208), (24, 180), (24, 180))))

  test("Table 1 at eta=1: every row Table1Job prints on each set") {
    assert(Table1Job.sets.map(_._1).toSet == table1.keySet)
    Table1Job.sets.foreach { case (title, ws) =>
      val (s, want) = table1(title)
      assert(Slicing.slicingPeriod(ws) == s, title)
      assert(Table1Job.rows(ws, 1).map { case (_, c) => (c.partial, c.finalAgg) } ==
        want.map { case (p, f) => (BigInt(p), BigInt(f)) }, title)
    }
  }

  test("Table 1 partial costs scale with eta, final costs do not") {
    for ((title, ws) <- Table1Job.sets; eta <- Table1Job.etas :+ 9L) {
      Table1Job.rows(ws, eta).zip(Table1Job.rows(ws, 1)).foreach { case ((row, c), (_, c1)) =>
        assert(c.partial == c1.partial * eta && c.finalAgg == c1.finalAgg, s"$title/$row eta=$eta")
      }
    }
  }

  test("Table 1 unshared paired rounds 2r/s up: 4·7 + 3·6 on {W(10,3), W(11,4)}") {
    // S = 12: ⌈20/3⌉ = 7 slices per W(10,3) instance, ⌈22/4⌉ = 6 per W(11,4).
    val c = Slicing.unsharedPaired(Seq(Window(10, 3), Window(11, 4)), 1)
    assert((c.partial, c.finalAgg) == ((BigInt(2 * 12), BigInt(4 * 7 + 3 * 6))))
  }

  test("unshared paired prices ceil(2r/s), not the slices its paired edges give an instance") {
    // The paired edges cut an instance [0, r) into 2⌊r/s⌋ + 1 slices when
    // s ∤ r and r/s when s | r; Table 1's ⌈2r/s⌉ is kept (DESIGN.md).
    for (s <- 1L to 12L; r <- s until 40L) {
      val w = Window(r, s)
      val spanned = (0L until r).count(t => Slicing.pairedEdges(w).exists(_.contains(t)))
      val priced = Slicing.unsharedPaired(Seq(w), 1).finalAgg // S = s: one instance
      if (r % s == 0) assert(priced == 2 * spanned, s"$w")
      else assert(priced - spanned == (if (2 * (r % s) > s) 1 else 0), s"$w")
    }
  }

  test("shared paired partial cost is eta*S regardless of window count") {
    sampled(100) { rnd => alignedSet(rnd, 4) } { ws =>
      Seq(BigInt(1), BigInt(50)).foreach { eta =>
        assert(Slicing.sharedPaired(ws, eta).partial == eta * Slicing.slicingPeriod(ws))
      }
    }
  }

  test("unshared partial cost replicates the stream n times") {
    sampled(100) { rnd => alignedSet(rnd, 5) } { ws =>
      val s = Slicing.slicingPeriod(ws)
      assert(Slicing.unsharedPaired(ws, 7).partial == 7 * s * ws.size)
      assert(Slicing.unsharedPaned(ws, 7).partial == 7 * s * ws.size)
    }
  }

  test("composed paired edge count is bounded by the sum of per-window edges") {
    sampled(100) { rnd => alignedSet(rnd, 5) } { ws =>
      val s = Slicing.slicingPeriod(ws)
      val e = Slicing.countUnion(ws.flatMap(Slicing.pairedEdges), s)
      val bound = ws.map(w => (s / w.s) * Slicing.pairedEdges(w).size).sum
      assert(e <= bound && e >= s / BigInt(ws.map(_.s).max))
    }
  }

  // ---- slice edges align every window instance ----------------------------

  /** Whether both ends of every instance `[a, b)` of every window in `ws`,
    * with `b ≤ horizon`, lie on an edge of the composed slicing `edges`:
    * then each instance is a union of whole slices, and the slices'
    * partial aggregates recombine into its exact result.
    */
  private def aligned(ws: Seq[Window], edges: Window => Seq[Progression], horizon: Long): Boolean = {
    val composed = ws.flatMap(edges)
    ws.forall(BruteForce.intervalsWithin(_, horizon).forall { case (a, b) =>
      composed.exists(_.contains(a)) && composed.exists(_.contains(b))
    })
  }

  test("shared paired edges align every instance of {W(10,4), W(12,6), W(8,2)}") {
    assert(aligned(Seq(Window(10, 4), Window(12, 6), Window(8, 2)), Slicing.pairedEdges, horizon = 120))
  }

  test("shared paned edges align every instance of {W(10,4), W(12,6), W(8,2)}") {
    assert(aligned(Seq(Window(10, 4), Window(12, 6), Window(8, 2)), Slicing.panedEdges, horizon = 120))
  }

  test("shared paired edges align every instance of the Example 1 tumbling set") {
    assert(aligned(Seq(10L, 20L, 30L, 40L).map(Window.tumbling), Slicing.pairedEdges, horizon = 240))
  }

  test("paired and paned edges align every instance of random aligned sets") {
    sampled(100) { rnd => alignedSet(rnd, 3, sMax = 6, kMax = 4) } { ws =>
      assert(aligned(ws, Slicing.pairedEdges, horizon = 150), s"paired $ws")
      assert(aligned(ws, Slicing.panedEdges, horizon = 150), s"paned $ws")
    }
  }

  test("unshared: each window's own paired and paned edges align its instances") {
    Seq(Window(10, 4), Window(9, 3)).foreach { w =>
      assert(aligned(Seq(w), Slicing.pairedEdges, 100), s"paired $w")
      assert(aligned(Seq(w), Slicing.panedEdges, 100), s"paned $w")
    }
  }

  test("the alignment check refuses W(10,4) on multiples of 4 alone") {
    // Every instance of W(10,4) ends at 2 mod 4, as [4, 14) ends at 14: the
    // paired edges hold that class, edges at multiples of 4 alone do not.
    assert(!aligned(Seq(Window(10, 4)), _ => Seq(Progression(0, 4)), horizon = 20))
    assert(aligned(Seq(Window(10, 4)), _ => Seq(Progression(0, 4), Progression(2, 4)), horizon = 20))
  }
}
