package repro.gen

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CostModel, Semantics, Wcg, Window}

class WindowGenSpec extends AnyFunSuite {

  private def gen(seed: Long) = new WindowGen(seed)

  test("generators are deterministic in the seed") {
    (1 to 5).foreach { i =>
      assert(gen(i).randomSet(5) == gen(i).randomSet(5))
      assert(gen(i).chainSet(5) == gen(i).chainSet(5))
      assert(gen(i).starSet(5) == gen(i).starSet(5))
      assert(gen(i).dagSet(3, 2, 2, 0.5) == gen(i).dagSet(3, 2, 2, 0.5))
    }
  }

  test("different seeds give different sets") {
    assert((1 to 10).map(i => gen(i).randomSet(5)).distinct.size > 5)
  }

  test("Algorithm 5: slides within [2, sMax], ranges are k*s with k <= kMax") {
    (1L to 30L).foreach { seed =>
      val w = gen(seed).randomWindow()
      assert(w.s >= 2 && w.s <= gen(seed).sMax)
      assert(w.r % w.s == 0 && w.r / w.s >= 1 && w.r / w.s <= gen(seed).kMax)
    }
  }

  test("all generators keep r a multiple of s (footnote 4 assumption)") {
    (1L to 10L).foreach { seed =>
      val g = gen(seed)
      val everything = g.randomSet(5) ++ g.randomTumblingSet(5) ++ g.chainSet(5) ++
        g.chainTumblingSet(5) ++ g.starSet(5) ++ g.starTumblingSet(5) ++
        g.dagSet(3, 2, 2, 0.5)
      everything.foreach(w => assert(w.r % w.s == 0, s"$w from seed $seed"))
    }
  }

  test("generated sets contain no duplicates") {
    (1L to 10L).foreach { seed =>
      val g = gen(seed)
      Seq(g.randomSet(5), g.randomTumblingSet(5), g.chainSet(5), g.starSet(5),
        g.dagSet(3, 2, 2, 0.5)).foreach(ws => assert(ws.distinct == ws))
    }
  }

  test("tumbling variants generate only tumbling windows") {
    (1L to 10L).foreach { seed =>
      val g = gen(seed)
      (g.randomTumblingSet(5) ++ g.chainTumblingSet(5) ++ g.starTumblingSet(5))
        .foreach(w => assert(w.isTumbling))
    }
  }

  test("ChainGen: W_{i+1} is covered by W_i for every consecutive pair") {
    (1L to 20L).foreach { seed =>
      val ws = gen(seed).chainSet(5)
      ws.sliding(2).foreach { case Seq(wi, wj) =>
        assert(wj.coveredBy(wi), s"$wj not covered by $wi (seed $seed)")
      }
    }
  }

  test("ChainGen tumbling: consecutive ranges divide") {
    (1L to 20L).foreach { seed =>
      gen(seed).chainTumblingSet(5).sliding(2).foreach { case Seq(wi, wj) =>
        assert(wj.r % wi.r == 0 && wj.r > wi.r)
      }
    }
  }

  test("StarGen: every satellite is covered by the hub W_1") {
    (1L to 20L).foreach { seed =>
      val ws = gen(seed).starSet(5)
      ws.tail.foreach(w => assert(w.coveredBy(ws.head), s"$w vs hub ${ws.head}"))
    }
  }

  test("Algorithm 6: DAG has the requested level sizes (2/4/6 for Fig. 15)") {
    (1L to 10L).foreach { seed =>
      assert(gen(seed).dagSet(3, 2, 2, 0.5).size == 12)
      assert(gen(seed).dagSet(2, 3, 1, 0.6).size == 7)
    }
  }

  test("Algorithm 6: cross-level coverage edges exist; WCG is nontrivial") {
    (1L to 10L).foreach { seed =>
      val ws = gen(seed).dagSet(3, 2, 2, 0.5)
      val edges = Wcg(ws, Semantics.CoveredBy).edges
      assert(edges.nonEmpty, s"DAG from seed $seed has no coverage edges")
      // Every window above the base is covered by one of the level below
      // (Theorem 1, by construction), and by no earlier one of its own.
      val levels = Seq(0, 2, 6, 12).sliding(2).map { case Seq(a, b) => ws.slice(a, b) }.toSeq
      levels.sliding(2).foreach { case Seq(below, level) =>
        level.zipWithIndex.foreach { case (w, i) =>
          assert(below.exists(w.coveredBy), s"$w covered by nothing in $below (seed $seed)")
          assert(!level.take(i).exists(w.coveredBy), s"$w covered within $level (seed $seed)")
        }
      }
    }
  }

  test("generated sets have workable hyper-periods for the cost model") {
    (1L to 10L).foreach { seed =>
      val g = gen(seed)
      Seq(g.randomSet(5), g.randomTumblingSet(5), g.chainSet(5), g.chainTumblingSet(5),
        g.starSet(5), g.starTumblingSet(5), g.dagSet(3, 2, 2, 0.5)).foreach { ws =>
        val bigR = CostModel.hyperPeriod(ws)
        ws.foreach { w =>
          assert((bigR - w.r) % w.s == 0, s"$w in $ws (seed $seed)")
          assert(CostModel.recurrenceCount(w, bigR) == 1 + (bigR - w.r) / w.s) // Equation 1
        }
      }
    }
  }

  test("10-window sets generate as well (the paper's larger configuration)") {
    (1L to 5L).foreach { seed =>
      assert(gen(seed).randomSet(10).size == 10)
      assert(gen(seed).chainSet(10).size == 10)
      assert(gen(seed).starSet(10).size == 10)
    }
  }

  // ---- exact draws ---------------------------------------------------------

  /** One draw of a generator kind: the six set generators at n = 4 (a set of
    * 3 is the first three windows of 4) and both Algorithm 6 shapes used in
    * the tests.
    */
  private def draw(g: WindowGen, kind: String): Vector[Window] = kind match {
    case "random"          => g.randomSet(4)
    case "random-tumbling" => g.randomTumblingSet(4)
    case "chain"           => g.chainSet(4)
    case "chain-tumbling"  => g.chainTumblingSet(4)
    case "star"            => g.starSet(4)
    case "star-tumbling"   => g.starTumblingSet(4)
    case "dag(3,2,2,0.5)"  => g.dagSet(3, 2, 2, 0.5)
    case "dag(2,3,1,0.6)"  => g.dagSet(2, 3, 1, 0.6)
  }

  /** `sMax kMax seed kind windows…` at the default `(sMax, kMax)` and at each
    * pair the Spark suites draw their window sets with; an indented line
    * continues the one above. A change to any draw changes the Spark
    * suites' test data.
    */
  private val pinnedDraws: Seq[(Long, Long, Long, String, String)] =
    """
      |10 8 1 random          W(32,8) W(9,3) W(10,10) W(80,10)
      |10 8 1 random-tumbling W(32,32) W(9,9) W(10,10) W(80,80)
      |10 8 1 chain           W(32,8) W(48,8) W(64,16) W(192,32)
      |10 8 1 chain-tumbling  W(32,32) W(64,64) W(128,128) W(512,512)
      |10 8 1 star            W(32,8) W(56,8) W(48,24) W(240,24)
      |10 8 1 star-tumbling   W(32,32) W(160,160) W(192,192) W(512,512)
      |10 8 1 dag(3,2,2,0.5)  W(32,8) W(9,3) W(90,9) W(144,24) W(64,16) W(72,24) W(288,144)
      |                       W(144,48) W(264,24) W(144,9) W(352,32) W(144,144)
      |10 8 1 dag(2,3,1,0.6)  W(32,8) W(9,3) W(10,10) W(150,30) W(64,8) W(90,10) W(33,3)
      |10 8 2 random          W(64,8) W(48,6) W(72,9) W(4,4)
      |10 8 2 random-tumbling W(64,64) W(48,48) W(72,72) W(4,4)
      |10 8 2 chain           W(64,8) W(96,8) W(160,16) W(176,16)
      |10 8 2 chain-tumbling  W(64,64) W(192,192) W(768,768) W(3072,3072)
      |10 8 2 star            W(64,8) W(208,16) W(264,24) W(72,8)
      |10 8 2 star-tumbling   W(64,64) W(576,576) W(1024,1024) W(896,896)
      |10 8 2 dag(3,2,2,0.5)  W(64,8) W(48,6) W(648,72) W(72,24) W(80,8) W(96,12) W(432,72)
      |                       W(480,48) W(240,24) W(144,24) W(96,24) W(288,36)
      |10 8 2 dag(2,3,1,0.6)  W(64,8) W(48,6) W(72,9) W(72,72) W(144,18) W(243,27) W(96,48)
      |4  3 1 random          W(8,4) W(2,2) W(4,4) W(12,4)
      |4  3 1 random-tumbling W(8,8) W(2,2) W(4,4) W(12,12)
      |4  3 1 chain           W(8,4) W(16,4) W(24,8) W(80,16)
      |4  3 1 chain-tumbling  W(8,8) W(16,16) W(32,32) W(128,128)
      |4  3 1 star            W(8,4) W(16,4) W(12,12) W(48,12)
      |4  3 1 star-tumbling   W(8,8) W(24,24) W(48,48) W(16,16)
      |4  3 1 dag(3,2,2,0.5)  W(8,4) W(2,2) W(24,6) W(20,4) W(16,8) W(12,12) W(48,24) W(24,24)
      |                       W(60,12) W(42,6) W(40,8) W(36,18)
      |4  3 1 dag(2,3,1,0.6)  W(8,4) W(2,2) W(6,3) W(108,36) W(16,4) W(12,12) W(18,6)
      |4  3 2 random          W(12,4) W(9,3) W(2,2) W(6,2)
      |4  3 2 random-tumbling W(12,12) W(9,9) W(2,2) W(6,6)
      |4  3 2 chain           W(12,4) W(28,4) W(56,8) W(64,8)
      |4  3 2 chain-tumbling  W(12,12) W(36,36) W(144,144) W(576,576)
      |4  3 2 star            W(12,4) W(40,8) W(60,12) W(16,4)
      |4  3 2 star-tumbling   W(12,12) W(48,48) W(72,72) W(36,36)
      |4  3 2 dag(3,2,2,0.5)  W(12,4) W(9,3) W(144,36) W(24,12) W(16,4) W(18,6) W(108,36) W(120,24)
      |                       W(60,12) W(36,12) W(72,18) W(36,36)
      |4  3 2 dag(2,3,1,0.6)  W(12,4) W(9,3) W(2,2) W(24,6) W(32,8) W(24,12) W(16,8)
      |5  4 1 random          W(8,4) W(4,2) W(5,5) W(20,5)
      |5  4 1 random-tumbling W(8,8) W(4,4) W(5,5) W(20,20)
      |5  4 1 chain           W(8,4) W(16,4) W(24,8) W(80,16)
      |5  4 1 chain-tumbling  W(8,8) W(16,16) W(32,32) W(128,128)
      |5  4 1 star            W(8,4) W(16,4) W(12,12) W(60,12)
      |5  4 1 star-tumbling   W(8,8) W(24,24) W(32,32) W(64,64)
      |5  4 1 dag(3,2,2,0.5)  W(8,4) W(4,2) W(30,6) W(20,4) W(16,8) W(12,12) W(48,24) W(60,12)
      |                       W(54,6) W(24,24) W(40,8) W(54,18)
      |5  4 1 dag(2,3,1,0.6)  W(8,4) W(4,2) W(5,5) W(30,10) W(16,4) W(25,5) W(12,12)
      |5  4 2 random          W(16,4) W(12,3) W(20,5) W(2,2)
      |5  4 2 random-tumbling W(16,16) W(12,12) W(20,20) W(2,2)
      |5  4 2 chain           W(16,4) W(32,4) W(64,8) W(72,8)
      |5  4 2 chain-tumbling  W(16,16) W(48,48) W(192,192) W(768,768)
      |5  4 2 star            W(16,4) W(56,8) W(72,12) W(20,4)
      |5  4 2 star-tumbling   W(16,16) W(80,80) W(128,128) W(112,112)
      |5  4 2 dag(3,2,2,0.5)  W(16,4) W(12,3) W(180,36) W(24,12) W(20,4) W(24,6) W(108,36) W(144,24)
      |                       W(60,12) W(48,12) W(36,12) W(72,18)
      |5  4 2 dag(2,3,1,0.6)  W(16,4) W(12,3) W(20,5) W(36,36) W(40,10) W(60,15) W(24,24)
      |6  4 1 random          W(10,5) W(6,3) W(6,6) W(24,6)
      |6  4 1 random-tumbling W(10,10) W(6,6) W(24,24) W(9,9)
      |6  4 1 chain           W(10,5) W(20,5) W(30,10) W(100,20)
      |6  4 1 chain-tumbling  W(10,10) W(20,20) W(40,40) W(160,160)
      |6  4 1 star            W(10,5) W(20,5) W(15,15) W(75,15)
      |6  4 1 star-tumbling   W(10,10) W(30,30) W(40,40) W(80,80)
      |6  4 1 dag(3,2,2,0.5)  W(10,5) W(6,3) W(45,9) W(45,15) W(20,10) W(15,15) W(90,90) W(60,30)
      |                       W(75,15) W(81,9) W(30,30) W(120,20)
      |6  4 1 dag(2,3,1,0.6)  W(10,5) W(6,3) W(6,6) W(24,6) W(20,5) W(15,15) W(21,3)
      |6  4 2 random          W(20,5) W(16,4) W(24,6) W(3,3)
      |6  4 2 random-tumbling W(20,20) W(16,16) W(24,24) W(3,3)
      |6  4 2 chain           W(20,5) W(40,5) W(80,10) W(90,10)
      |6  4 2 chain-tumbling  W(20,20) W(60,60) W(240,240) W(960,960)
      |6  4 2 star            W(20,5) W(70,10) W(90,15) W(25,5)
      |6  4 2 star-tumbling   W(20,20) W(100,100) W(160,160) W(140,140)
      |6  4 2 dag(3,2,2,0.5)  W(20,5) W(16,4) W(300,60) W(30,15) W(200,40) W(120,20) W(360,120)
      |                       W(360,60) W(360,180) W(480,80) W(160,40) W(180,20)
      |6  4 2 dag(2,3,1,0.6)  W(20,5) W(16,4) W(24,6) W(60,60) W(48,12) W(90,18) W(40,40)
      |8  5 1 random          W(21,7) W(6,3) W(8,8) W(40,8)
      |8  5 1 random-tumbling W(21,21) W(6,6) W(8,8) W(40,40)
      |8  5 1 chain           W(21,7) W(35,7) W(42,14) W(140,28)
      |8  5 1 chain-tumbling  W(21,21) W(42,42) W(84,84) W(336,336)
      |8  5 1 star            W(21,7) W(35,7) W(42,21) W(147,21)
      |8  5 1 star-tumbling   W(21,21) W(63,63) W(84,84) W(210,210)
      |8  5 1 dag(3,2,2,0.5)  W(21,7) W(6,3) W(54,9) W(105,21) W(28,14) W(42,21) W(252,126) W(84,42)
      |                       W(147,21) W(90,9) W(42,42) W(196,28)
      |8  5 1 dag(2,3,1,0.6)  W(21,7) W(6,3) W(8,8) W(96,24) W(42,7) W(48,8) W(42,21)
      |8  5 2 random          W(35,7) W(25,5) W(3,3) W(8,2)
      |8  5 2 random-tumbling W(35,35) W(25,25) W(3,3) W(8,8)
      |8  5 2 chain           W(35,7) W(63,7) W(112,14) W(126,14)
      |8  5 2 chain-tumbling  W(35,35) W(105,105) W(420,420) W(1680,1680)
      |8  5 2 star            W(35,7) W(112,14) W(147,21) W(42,7)
      |8  5 2 star-tumbling   W(35,35) W(210,210) W(350,350) W(315,315)
      |8  5 2 dag(3,2,2,0.5)  W(35,7) W(25,5) W(630,105) W(42,21) W(420,70) W(245,35) W(840,210)
      |                       W(735,105) W(980,140) W(350,70) W(385,35) W(189,63)
      |8  5 2 dag(2,3,1,0.6)  W(35,7) W(25,5) W(3,3) W(54,9) W(168,42) W(42,21) W(175,35)
      |""".stripMargin.trim.replaceAll("\n +", " ").split("\n").toSeq.map { line =>
      val Array(sMax, kMax, seed, kind, windows) = line.split(" +", 5)
      (sMax.toLong, kMax.toLong, seed.toLong, kind, windows)
    }

  test("every generator draws the pinned sets (default and test parameters)") {
    assert(pinnedDraws.size == 5 * 2 * 8)
    pinnedDraws.foreach { case (sMax, kMax, seed, kind, want) =>
      val got = draw(new WindowGen(seed, sMax, kMax), kind).mkString(" ")
      assert(got == want, s"$kind at (sMax=$sMax, kMax=$kMax), seed $seed")
    }
  }

  test("a generator that gives up says which set it could not fill") {
    val giveUps: Seq[(String, () => Vector[Window])] = Seq(
      "DAG level 1" -> (() => gen(63).dagSet(3, 2, 2, 0.5)),
      "DAG level 2" -> (() => gen(98).dagSet(3, 2, 2, 0.5)),
      // (sMax, kMax) = (4, 3) has 3·3 = 9 windows and 5 tumbling satellites
      "10 distinct windows" -> (() => new WindowGen(1, 4, 3).randomSet(10)),
      "tumbling star of 10 windows" -> (() => new WindowGen(1, 4, 3).starTumblingSet(10)))
    giveUps.foreach { case (what, call) =>
      val e = intercept[IllegalArgumentException](call())
      assert(e.getMessage == s"requirement failed: could not generate $what")
    }
  }
}
