package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.slicing.Slicing
import scala.collection.mutable

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

  private val rowsMemo = mutable.Map.empty[(String, Semantics, Long), Seq[EvalHarness.Row]]

  /** The rows of the figure panel `figure` at `eta`, evaluated once per
    * (kind, semantics, η) in this suite: the pins, the shape relations and
    * the per-set checks below all read them.
    */
  private def panelRows(figure: String, eta: Long): Seq[EvalHarness.Row] = {
    val p = EvalHarness.panel(figure)
    rowsMemo.getOrElseUpdate((p.kind, p.semantics, eta),
      EvalHarness.evaluate(p.kind, p.semantics, eta))
  }

  test("WCG <= BL and WCG-FW <= WCG on every generated workload") {
    for {
      p <- EvalHarness.panels
      eta <- Seq(1L, 10L, 100L)
      (label, _, c) <- panelRows(p.name, eta)
    } {
      assert(c.wcg <= c.bl, s"${p.kind}/$label eta=$eta: WCG > BL")
      assert(c.wcgFw <= c.wcg, s"${p.kind}/$label eta=$eta: WCG-FW > WCG")
      assert(c.toSeq.forall(_._2 > 0), s"${p.kind}/$label eta=$eta: non-positive cost")
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
      p <- EvalHarness.panels
      (label, _, c) <- panelRows(p.name, 100)
    } assert(c.sp <= c.up, s"${p.kind}/$label eta=100: SP > UP")
  }

  test("tumbling sets: UP is no better than BL (paper's Figure 12 observation)") {
    panelRows("Figure 12", 100).foreach { case (label, _, c) =>
      assert(c.up >= c.bl, s"$label: UP beat BL on a tumbling set")
    }
  }

  // (BL, UP, SP, WCG, WCG-FW) of the ten sets of every figure panel at each
  // of its rates, as `EvalHarness.render` prints them and the `Fig*Job`
  // mains show them: a change to the cost model, the planner, `Slicing` or
  // `Techniques` that moves a printed cost fails here.
  private def p(costs: Long*): Seq[BigInt] = costs.map(BigInt(_))
  private val pinned: Seq[(String, Long, Seq[Seq[BigInt]])] = Seq(
    ("Figure 11", 1, Seq(
      p(13788, 9234, 11808, 10311, 10206), p(140600, 119664, 85680, 73499, 73499),
      p(3618, 2736, 2144, 1266, 1266), p(27086, 20524, 19740, 16161, 13286),
      p(188252, 106890, 102060, 89347, 88512), p(25030, 20144, 18240, 22358, 22358),
      p(52340, 31248, 20160, 30334, 30334), p(49394, 50112, 35280, 30209, 29973),
      p(83514, 62510, 54600, 49350, 42104), p(5692, 3660, 3376, 3479, 3479))),
    ("Figure 11", 10, Seq(
      p(137880, 37584, 17478, 98493, 98388), p(1406000, 346464, 131040, 570947, 171048),
      p(36180, 13536, 4304, 9852, 5960), p(270860, 77224, 31080, 106035, 37422),
      p(1882520, 447090, 170100, 768343, 235290), p(250300, 95744, 33360, 217568, 54391),
      p(523400, 144648, 42840, 277186, 79546), p(493940, 147312, 54720, 262409, 71146),
      p(835140, 251510, 92400, 351300, 122449), p(56920, 14460, 5536, 32747, 8137))),
    ("Figure 11", 100, Seq(
      p(1378800, 321084, 74178, 980313, 980208), p(14060000, 2614464, 584640, 5545427, 1078068),
      p(361800, 121536, 25904, 95712, 48980), p(2708600, 644224, 144480, 1004775, 264042),
      p(18825200, 3849090, 850500, 7558303, 1595910), p(2503000, 851744, 184560, 2169668, 356611),
      p(5234000, 1278648, 269640, 2745706, 532966), p(4939400, 1119312, 249120, 2584409, 459766),
      p(8351400, 2141510, 470400, 3370800, 878269), p(569200, 122460, 27136, 325427, 51157))),
    ("Figure 12", 1, Seq(
      p(3150, 3970, 2280, 2205, 2205), p(25200, 27526, 9180, 20520, 15480),
      p(1200, 1414, 640, 608, 608), p(6300, 7596, 3390, 4060, 3430),
      p(37800, 40868, 12690, 30870, 30870), p(8400, 9834, 4080, 5712, 5712),
      p(12600, 14050, 4980, 10332, 7812), p(10800, 12310, 4920, 10800, 10800),
      p(147000, 167282, 70080, 147000, 147000), p(1200, 1278, 360, 738, 618))),
    ("Figure 12", 10, Seq(
      p(31500, 32320, 7950, 13545, 13545), p(252000, 254326, 54540, 201960, 60840),
      p(12000, 12214, 2800, 4928, 4928), p(63000, 64296, 14730, 38080, 14770),
      p(378000, 381068, 80730, 303030, 303030), p(84000, 85434, 19200, 51072, 51072),
      p(126000, 127450, 27660, 101052, 30492), p(108000, 109510, 24360, 108000, 108000),
      p(1470000, 1490282, 334680, 1470000, 1470000), p(12000, 12078, 2520, 7218, 2778))),
    ("Figure 12", 100, Seq(
      p(315000, 315820, 64650, 126945, 126945), p(2520000, 2522326, 508140, 2016360, 514440),
      p(120000, 120214, 24400, 48128, 48128), p(630000, 631296, 128130, 378280, 128170),
      p(3780000, 3783068, 761130, 3024630, 3024630), p(840000, 841434, 170400, 504672, 504672),
      p(1260000, 1261450, 254460, 1008252, 257292), p(1080000, 1081510, 218760, 1080000, 1080000),
      p(14700000, 14720282, 2980680, 14700000, 14700000), p(120000, 120078, 24120, 72018, 24378))),
    ("Figure 13(a)", 100, Seq(
      p(17827000, 2554776, 540288, 3016687, 517715),
      p(44338000, 5542680, 1155960, 4378167, 1119130),
      p(8818800, 1104840, 231120, 1697019, 221443), p(11304000, 2173920, 444960, 1720474, 436963),
      p(20635200, 2551080, 527520, 3495798, 514035), p(2217600, 425400, 87360, 248877, 85549),
      p(58491600, 6166160, 1299298, 8406075, 1240043),
      p(39382200, 5739300, 1178100, 3412237, 1155923),
      p(391336000, 37939440, 7881720, 51821148, 7576619),
      p(904864000, 93869160, 19385520, 148000974, 18877093))),
    ("Figure 13(b)", 100, Seq(
      p(960000, 960174, 192320, 192086, 192086), p(896000, 896214, 179520, 179306, 179306),
      p(576000, 576078, 115320, 115238, 115238), p(864000, 864176, 173040, 172887, 172887),
      p(3024000, 3024320, 605280, 604959, 604959), p(378000, 378128, 75780, 75663, 75663),
      p(2268000, 2268314, 454140, 453756, 453756), p(648000, 648164, 129840, 129681, 129681),
      p(1512000, 1512170, 302670, 302484, 302484), p(2880000, 2880218, 576360, 576108, 576108))),
    ("Figure 14(a)", 100, Seq(
      p(114381000, 14003080, 2959320, 16462992, 2838996),
      p(13423200, 1670604, 347256, 1309758, 336390), p(2631600, 366760, 76920, 543702, 74263),
      p(105138000, 17173800, 3519180, 13633637, 3453560),
      p(55638000, 6337716, 1309770, 8709569, 1274930), p(1195600, 255240, 52272, 147698, 51314),
      p(232458000, 28172760, 5932080, 38847374, 5682444),
      p(5556600, 822480, 168480, 482889, 164889),
      p(132472000, 17725344, 3660384, 24475122, 3572856),
      p(384926000, 43408344, 8953560, 68607737, 8756242))),
    ("Figure 14(b)", 100, Seq(
      p(9360000, 9362462, 1875120, 1874184, 1874184), p(4704000, 4705098, 942480, 941920, 941920),
      p(2880000, 2880458, 576600, 576390, 576390), p(2160000, 2160466, 432600, 432330, 432330),
      p(14742000, 14743346, 2950740, 2949882, 2949882),
      p(1260000, 1260394, 252600, 252390, 252330), p(6615000, 6615958, 1324575, 1324008, 1324008),
      p(7128000, 7129834, 1428240, 1427316, 1427316),
      p(70560000, 70567958, 14124600, 14122080, 14122080),
      p(28800000, 28802314, 5763600, 5762400, 5762400))),
    ("Figure 15", 100, Seq(
      p(274798800, 37733472, 4675104, 21544984, 21544984),
      p(2222122800L, 268117920, 33868800, 234947594, 46780506),
      p(186730296000L, 22783793760L, 2489760000L, 16887074330L, 3984185540L),
      p(7783092000L, 1218349440, 143035200, 607984979, 216533982),
      p(2582767800L, 331012080, 35834400, 355100772, 59344798),
      p(306418200, 64145480, 6607440, 42448868, 11139369),
      p(6131511600L, 720752760, 69189120, 179954789, 62382758),
      p(147950000, 23870280, 2775600, 21487311, 4221609),
      p(14860673200L, 1875038256, 197801856, 1389815662, 329939984),
      p(222600400, 39159360, 3761640, 42132880, 3537460))))

  /** Asserts the `columns` (names of `TechniqueCosts.toSeq`) of a panel's
    * ten sets at `eta` against their pins.
    */
  private def assertPinned(figure: String, eta: Long, want: Seq[Seq[BigInt]],
                           columns: String*): Unit =
    panelRows(figure, eta).zip(want).foreach { case ((label, _, c), pin) =>
      c.toSeq.zip(pin).foreach { case ((col, got), exp) =>
        if (columns.contains(col)) assert(got == exp, s"$figure eta=$eta $label $col")
      }
    }

  pinned.foreach { case (figure, eta, want) =>
    test(s"$figure baseline at eta=$eta: BL of every set unchanged") {
      assertPinned(figure, eta, want, "BL")
    }
    test(s"$figure plans at eta=$eta: (WCG, WCG-FW) of every set unchanged") {
      assertPinned(figure, eta, want, "WCG", "WCG-FW")
    }
    test(s"$figure slicing at eta=$eta: (UP, SP) of every set unchanged") {
      assertPinned(figure, eta, want, "UP", "SP")
    }
  }

  test("the pins cover every rate of every figure panel") {
    assert(pinned.map { case (f, eta, _) => (f, eta) } ==
      EvalHarness.panels.flatMap(p => p.etas.map(p.name -> _)))
    pinned.foreach { case (f, eta, want) =>
      assert(want.size == EvalHarness.SetsPerExperiment && want.forall(_.size == 5), s"$f eta=$eta")
    }
  }

  // ---- the paper's shape relations (§5.3), on geometric means vs BL ------

  /** Geometric mean of `f(c)/BL` over a panel's ten sets at η = 100, the
    * rate the paper focuses on and every shape relation reads.
    */
  private def geo(figure: String)(f: TechniqueCosts => BigInt): Double =
    EvalHarness.geoMeanVsBl(panelRows(figure, 100).map(_._3))(f)

  // At η = 100 (the paper's focus) sharing wins on every general panel, and
  // WCG-FW is within `spFactor` of SP on geometric mean; SP <= UP per set
  // is checked on every panel above.
  Seq("Figure 11" -> 5.0, "Figure 13(a)" -> 1.5, "Figure 14(a)" -> 1.5, "Figure 15" -> 3.0)
    .foreach { case (figure, spFactor) =>
      test(s"$figure shape at eta=100: sharing wins, WCG-FW comparable to SP") {
        val (gUp, gSp, gWcgFw) = (geo(figure)(_.up), geo(figure)(_.sp), geo(figure)(_.wcgFw))
        assert(gSp < gUp, "SP should beat UP on geometric mean")
        assert(gWcgFw < 1.0, "WCG-FW should improve on BL")
        assert(gWcgFw <= spFactor * gSp,
          f"WCG-FW ($gWcgFw%.4f) not comparable to SP ($gSp%.4f) within ${spFactor}x")
      }
    }

  test("Figure 11 shape: WCG-FW improves WCG significantly on general sets") {
    assert(geo("Figure 11")(_.wcgFw) < 0.5 * geo("Figure 11")(_.wcg))
  }

  test("Figure 11 shape: UP well below BL on general (hopping) sets at eta=100") {
    assert(geo("Figure 11")(_.up) < 0.5)
  }

  test("Figure 12 shape: WCG clearly improves on BL for tumbling sets") {
    assert(geo("Figure 12")(_.wcg) < 0.9)
  }

  test("Figure 12 shape: WCG-FW improves on WCG (factor windows pay off)") {
    assert(geo("Figure 12")(_.wcgFw) < geo("Figure 12")(_.wcg))
  }

  // On tumbling chains and stars the chain itself provides the sharing:
  // factor windows are unnecessary, and WCG alone reaches SP's level.
  Seq("Figure 13(b)" -> "chains", "Figure 14(b)" -> "stars").foreach { case (figure, shape) =>
    test(s"$figure shape: WCG ~ WCG-FW on tumbling $shape (factor windows unnecessary)") {
      val (gW, gF) = (geo(figure)(_.wcg), geo(figure)(_.wcgFw))
      assert(gF <= gW && gW <= 1.05 * gF, f"WCG=$gW%.4f vs WCG-FW=$gF%.4f diverge")
    }
    test(s"$figure shape: WCG reaches SP's level on tumbling $shape") {
      assert(geo(figure)(_.wcg) <= 1.25 * geo(figure)(_.sp))
    }
  }

  test("Figure 15 shape: WCG exploits the DAG structure (well below BL)") {
    assert(geo("Figure 15")(_.wcg) < 0.5)
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
      panelRows("Figure 13(a)", 10))
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
