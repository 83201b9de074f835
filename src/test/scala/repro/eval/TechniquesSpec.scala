package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.slicing.Slicing

class TechniquesSpec extends AnyFunSuite with SeededProps {

  private val ex1 = Seq(10L, 20L, 30L, 40L).map(Window.tumbling)

  test("period extension: L = lcm(R, S) and costs scale by the extension") {
    val ws = Seq(Window(12, 4), Window(20, 8))
    val bigR = CostModel.hyperPeriod(ws)   // lcm(12,20) = 60
    val bigS = Slicing.slicingPeriod(ws)   // lcm(4,8) = 8
    val c = Techniques.evaluate(ws, Semantics.CoveredBy, 1)
    assert(c.period == NumberTheory.lcm(bigR, bigS))
    assert(c.bl == CostModel.baselineCost(ws, 1) * (c.period / bigR))
    assert(c.up == Slicing.unsharedPaired(ws, 1).total * (c.period / bigS))
  }

  test("Example 1 set at eta=1: BL=480, WCG=150 per period R=S=120") {
    val c = Techniques.evaluate(ex1, Semantics.CoveredBy, 1)
    assert(c.period == 120)
    assert(c.bl == 480)
    assert(c.wcg == 150)
    assert(c.wcgFw <= c.wcg)
  }

  test("WCG <= BL and WCG-FW <= WCG on every generated workload") {
    for {
      kind <- Seq("random", "chain", "star", "dag", "random-tumbling")
      sem = if (kind.endsWith("tumbling")) Semantics.PartitionedBy else Semantics.CoveredBy
      (label, ws) <- EvalHarness.sets(kind)
      eta <- Seq(1L, 100L)
    } {
      val c = Techniques.evaluate(ws, sem, eta)
      assert(c.wcg <= c.bl, s"$kind/$label eta=$eta: WCG > BL")
      assert(c.wcgFw <= c.wcg, s"$kind/$label eta=$eta: WCG-FW > WCG")
      assert(c.toSeq.forall(_._2 > 0), s"$kind/$label eta=$eta: non-positive cost")
    }
  }

  test("SP partial cost always beats UP partial cost (T vs nT)") {
    for {
      kind <- Seq("random", "chain", "star", "random-tumbling")
      (label, ws) <- EvalHarness.sets(kind)
    } {
      assert(Slicing.sharedPaired(ws, 100).partial * ws.size ==
        Slicing.unsharedPaired(ws, 100).partial, s"$kind/$label")
    }
  }

  test("SP <= UP at eta=100 on every generated workload (partial cost dominates)") {
    // At low eta the composed-slice final aggregation can outweigh the
    // unshared plan (the paper reports stable orderings only for medium to
    // high rates and focuses on eta=100); at eta=100 sharing must win.
    for {
      kind <- Seq("random", "chain", "star", "random-tumbling")
      (label, ws) <- EvalHarness.sets(kind)
    } {
      val c = Techniques.evaluate(ws, Semantics.CoveredBy, 100)
      assert(c.sp <= c.up, s"$kind/$label eta=100: SP > UP")
    }
  }

  test("tumbling sets: UP is no better than BL (paper's Figure 12 observation)") {
    EvalHarness.sets("random-tumbling").foreach { case (label, ws) =>
      val c = Techniques.evaluate(ws, Semantics.PartitionedBy, 100)
      assert(c.up >= c.bl, s"$label: UP beat BL on a tumbling set")
    }
  }

  // (WCG, WCG-FW) of the ten sets at eta=100, as printed by the Figure 11
  // and Figure 12 tables of the bench suites: a planner change that alters
  // any of these plans fails here.
  private val pinned = Seq(
    ("Figure 11", "random", Semantics.CoveredBy, Seq[(BigInt, BigInt)](
      (980313, 980208), (5545427, 1078068), (95712, 48980), (1004775, 264042),
      (7558303, 1595910), (2169668, 356611), (2745706, 532966),
      (2584409, 459766), (3370800, 878269), (325427, 51157))),
    ("Figure 12", "random-tumbling", Semantics.PartitionedBy, Seq[(BigInt, BigInt)](
      (126945, 126945), (2016360, 514440), (48128, 48128), (378280, 128170),
      (3024630, 3024630), (504672, 504672), (1008252, 257292),
      (1080000, 1080000), (14700000, 14700000), (72018, 24378))))

  // Every figure panel: the pins above, then Figures 11 and 12 at eta=1 and
  // 10 and Figures 13-15 at eta=100 (chain, star and dag plans).
  private val pinnedPanels = pinned.map { case (f, k, sem, want) => (f, k, sem, 100, want) } ++ Seq(
    ("Figure 11", "random", Semantics.CoveredBy, 1, Seq[(BigInt, BigInt)](
      (10311, 10206), (73499, 73499), (1266, 1266), (16161, 13286), (89347, 88512),
      (22358, 22358), (30334, 30334), (30209, 29973), (49350, 42104), (3479, 3479))),
    ("Figure 11", "random", Semantics.CoveredBy, 10, Seq[(BigInt, BigInt)](
      (98493, 98388), (570947, 171048), (9852, 5960), (106035, 37422), (768343, 235290),
      (217568, 54391), (277186, 79546), (262409, 71146), (351300, 122449), (32747, 8137))),
    ("Figure 12", "random-tumbling", Semantics.PartitionedBy, 1, Seq[(BigInt, BigInt)](
      (2205, 2205), (20520, 15480), (608, 608), (4060, 3430), (30870, 30870), (5712, 5712),
      (10332, 7812), (10800, 10800), (147000, 147000), (738, 618))),
    ("Figure 12", "random-tumbling", Semantics.PartitionedBy, 10, Seq[(BigInt, BigInt)](
      (13545, 13545), (201960, 60840), (4928, 4928), (38080, 14770), (303030, 303030),
      (51072, 51072), (101052, 30492), (108000, 108000), (1470000, 1470000), (7218, 2778))),
    ("Figure 13(a)", "chain", Semantics.CoveredBy, 100, Seq[(BigInt, BigInt)](
      (3016687, 517715), (4378167, 1119130), (1697019, 221443), (1720474, 436963),
      (3495798, 514035), (248877, 85549), (8406075, 1240043), (3412237, 1155923),
      (51821148, 7576619), (148000974, 18877093))),
    ("Figure 13(b)", "chain-tumbling", Semantics.PartitionedBy, 100, Seq[(BigInt, BigInt)](
      (192086, 192086), (179306, 179306), (115238, 115238), (172887, 172887), (604959, 604959),
      (75663, 75663), (453756, 453756), (129681, 129681), (302484, 302484), (576108, 576108))),
    ("Figure 14(a)", "star", Semantics.CoveredBy, 100, Seq[(BigInt, BigInt)](
      (16462992, 2838996), (1309758, 336390), (543702, 74263), (13633637, 3453560),
      (8709569, 1274930), (147698, 51314), (38847374, 5682444), (482889, 164889),
      (24475122, 3572856), (68607737, 8756242))),
    ("Figure 14(b)", "star-tumbling", Semantics.PartitionedBy, 100, Seq[(BigInt, BigInt)](
      (1874184, 1874184), (941920, 941920), (576390, 576390), (432330, 432330),
      (2949882, 2949882), (252390, 252330), (1324008, 1324008), (1427316, 1427316),
      (14122080, 14122080), (5762400, 5762400))),
    ("Figure 15", "dag", Semantics.CoveredBy, 100, Seq[(BigInt, BigInt)](
      (21544984, 21544984), (234947594, 46780506), (16887074330L, 3984185540L),
      (607984979, 216533982), (355100772, 59344798), (42448868, 11139369),
      (179954789, 62382758), (21487311, 4221609), (1389815662, 329939984), (42132880, 3537460))))

  pinnedPanels.foreach { case (figure, kind, sem, eta, want) =>
    test(s"$figure plans at eta=$eta: (WCG, WCG-FW) of every set unchanged") {
      EvalHarness.sets(kind).zip(want).foreach { case ((label, ws), (wcg, wcgFw)) =>
        val c = Techniques.evaluate(ws, sem, eta)
        assert((c.wcg, c.wcgFw) == ((wcg, wcgFw)), s"$kind/$label")
      }
    }
  }

  // (UP, SP) of the ten sets of every figure panel, as printed by the bench
  // suites' tables: SP is the figures' only use of the composed-slice edge
  // count E, so a change to `Slicing.countUnion` or to a Table 1 formula
  // fails here.
  private val pinnedSlicing = Seq(
    ("Figure 11", "random", Semantics.CoveredBy, 1, Seq[(BigInt, BigInt)](
      (9234, 11808), (119664, 85680), (2736, 2144), (20524, 19740), (106890, 102060),
      (20144, 18240), (31248, 20160), (50112, 35280), (62510, 54600), (3660, 3376))),
    ("Figure 11", "random", Semantics.CoveredBy, 10, Seq[(BigInt, BigInt)](
      (37584, 17478), (346464, 131040), (13536, 4304), (77224, 31080), (447090, 170100),
      (95744, 33360), (144648, 42840), (147312, 54720), (251510, 92400), (14460, 5536))),
    ("Figure 11", "random", Semantics.CoveredBy, 100, Seq[(BigInt, BigInt)](
      (321084, 74178), (2614464, 584640), (121536, 25904), (644224, 144480), (3849090, 850500),
      (851744, 184560), (1278648, 269640), (1119312, 249120), (2141510, 470400), (122460, 27136))),
    ("Figure 12", "random-tumbling", Semantics.PartitionedBy, 1, Seq[(BigInt, BigInt)](
      (3970, 2280), (27526, 9180), (1414, 640), (7596, 3390), (40868, 12690), (9834, 4080),
      (14050, 4980), (12310, 4920), (167282, 70080), (1278, 360))),
    ("Figure 12", "random-tumbling", Semantics.PartitionedBy, 10, Seq[(BigInt, BigInt)](
      (32320, 7950), (254326, 54540), (12214, 2800), (64296, 14730), (381068, 80730),
      (85434, 19200), (127450, 27660), (109510, 24360), (1490282, 334680), (12078, 2520))),
    ("Figure 12", "random-tumbling", Semantics.PartitionedBy, 100, Seq[(BigInt, BigInt)](
      (315820, 64650), (2522326, 508140), (120214, 24400), (631296, 128130), (3783068, 761130),
      (841434, 170400), (1261450, 254460), (1081510, 218760), (14720282, 2980680),
      (120078, 24120))),
    ("Figure 13(a)", "chain", Semantics.CoveredBy, 100, Seq[(BigInt, BigInt)](
      (2554776, 540288), (5542680, 1155960), (1104840, 231120), (2173920, 444960),
      (2551080, 527520), (425400, 87360), (6166160, 1299298), (5739300, 1178100),
      (37939440, 7881720), (93869160, 19385520))),
    ("Figure 13(b)", "chain-tumbling", Semantics.PartitionedBy, 100, Seq[(BigInt, BigInt)](
      (960174, 192320), (896214, 179520), (576078, 115320), (864176, 173040), (3024320, 605280),
      (378128, 75780), (2268314, 454140), (648164, 129840), (1512170, 302670), (2880218, 576360))),
    ("Figure 14(a)", "star", Semantics.CoveredBy, 100, Seq[(BigInt, BigInt)](
      (14003080, 2959320), (1670604, 347256), (366760, 76920), (17173800, 3519180),
      (6337716, 1309770), (255240, 52272), (28172760, 5932080), (822480, 168480),
      (17725344, 3660384), (43408344, 8953560))),
    ("Figure 14(b)", "star-tumbling", Semantics.PartitionedBy, 100, Seq[(BigInt, BigInt)](
      (9362462, 1875120), (4705098, 942480), (2880458, 576600), (2160466, 432600),
      (14743346, 2950740), (1260394, 252600), (6615958, 1324575), (7129834, 1428240),
      (70567958, 14124600), (28802314, 5763600))),
    ("Figure 15", "dag", Semantics.CoveredBy, 100, Seq[(BigInt, BigInt)](
      (37733472, 4675104), (268117920, 33868800), (22783793760L, 2489760000L),
      (1218349440, 143035200), (331012080, 35834400), (64145480, 6607440),
      (720752760, 69189120), (23870280, 2775600), (1875038256, 197801856), (39159360, 3761640))))

  pinnedSlicing.foreach { case (figure, kind, sem, eta, want) =>
    test(s"$figure slicing at eta=$eta: (UP, SP) of every set unchanged") {
      EvalHarness.sets(kind).zip(want).foreach { case ((label, ws), (up, sp)) =>
        val c = Techniques.evaluate(ws, sem, eta)
        assert((c.up, c.sp) == ((up, sp)), s"$kind/$label")
      }
    }
  }

  // Ranges of the tumbling factor windows in each set's WCG-FW plan, on the
  // partitioned-by panels: set2, set4, set7 and set10 of Figure 12 use
  // W(2,2) at every rate, set6 of Figure 14(b) uses W(42,42).
  private val fig12Factors = Seq(Nil, Seq(2L), Nil, Seq(2L), Nil, Nil, Seq(2L), Nil, Nil, Seq(2L))
  private val pinnedFactors = Seq(1, 10, 100).map(eta =>
    ("Figure 12", "random-tumbling", eta, fig12Factors)) ++ Seq(
    ("Figure 13(b)", "chain-tumbling", 100, Seq.fill(10)(Nil)),
    ("Figure 14(b)", "star-tumbling", 100, Seq.fill(5)(Nil) ++ Seq(Seq(42L)) ++ Seq.fill(4)(Nil)))

  pinnedFactors.foreach { case (figure, kind, eta, want) =>
    test(s"$figure factor windows at eta=$eta: WCG-FW plan of every set unchanged") {
      EvalHarness.sets(kind).zip(want).foreach { case ((label, ws), ranges) =>
        val plan = FactorWindows.minCostPlanWithFactors(ws, Semantics.PartitionedBy, eta)
        assert(plan.factorWindows == ranges.map(Window.tumbling), s"$kind/$label")
      }
    }
  }

  test("a repeated window is evaluated once by every technique") {
    val ws = Seq(Window(12, 4), Window(20, 10))
    assert(Techniques.evaluate(ws :+ ws.head, Semantics.CoveredBy, 10) ==
      Techniques.evaluate(ws, Semantics.CoveredBy, 10))
  }

  test("EvalHarness window sets are deterministic") {
    assert(EvalHarness.sets("random") == EvalHarness.sets("random"))
    assert(EvalHarness.sets("dag").map(_._2) == EvalHarness.sets("dag").map(_._2))
  }

  test("EvalHarness rejects unknown generators") {
    assertThrows[IllegalArgumentException](EvalHarness.generate("bogus", 1))
  }

  test("experiment tables render one row per window set plus a summary") {
    val table = EvalHarness.render("t", "chain", Semantics.CoveredBy, 10,
      EvalHarness.evaluate("chain", Semantics.CoveredBy, 10))
    assert(table.linesIterator.count(_.matches("^set\\d+ .*")) == EvalHarness.SetsPerExperiment)
    assert(table.contains("geo-mean"))
  }

  test("technique ordering is stable under eta scaling for slicing costs") {
    sampled(50) { rnd => alignedSet(rnd, 5) } { ws =>
      val c1 = Techniques.evaluate(ws, Semantics.CoveredBy, 1)
      val c100 = Techniques.evaluate(ws, Semantics.CoveredBy, 100)
      // partial costs scale with eta; final costs do not — so UP/SP grow
      // strictly slower than 100x.
      assert(c100.up < c1.up * 100)
      assert(c100.sp < c1.sp * 100)
    }
  }
}
