package repro.exec

import java.lang.management.ManagementFactory
import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.eval.EvalHarness
import repro.gen.WindowGen
import scala.collection.mutable
import scala.util.Random

/** The cost model against work actually done: on a dense stream, the items
  * `ForestEval` merges into each node's complete instances are that node's
  * cost `c_i` of §3.2.1 / Observation 1. The pane path of
  * `Executor.rewritten` (panes per input partition, merged per key) gives
  * the same rows and counts as one pass over the events. (Its results are
  * checked against the baseline plan and DuckDB in `ExecutorSpec`.)
  */
class ForestEvalSpec extends AnyFunSuite with SeededProps {

  private val ex1 = Seq(10L, 20L, 30L, 40L).map(Window.tumbling)
  private val ex7 = Seq(20L, 30L, 40L).map(Window.tumbling)
  private val hopping = Seq(Window(40, 10), Window(80, 20), Window(120, 40))

  /** Events `(k, t, v)` merged per key into panes of length `g` by one
    * `PaneBuilder`, as each input partition of `Executor.rewritten` is.
    */
  private def panes(g: Long, agg: AggSpec,
                    events: IterableOnce[(Long, Long, Double)]): Iterator[(Long, ForestEval.Panes)] = {
    val builder = new ForestEval.PaneBuilder(g, agg)
    events.iterator.foreach { case (k, t, v) => builder.add(k, t, v) }
    builder.result()
  }

  /** `plan` run over `events` in one pass: every event is its own pane of
    * one time unit.
    */
  private def onePass(plan: WcgPlan, agg: AggSpec,
                      events: IterableOnce[(Long, Long, Double)]): ForestEval.Result =
    ForestEval.fromPanes(plan, agg, panes(1, agg, events))

  /** The user windows' rows of `result`, `(w_r, w_s, k, wstart) -> value`. */
  private def rows(result: ForestEval.Result): Map[(Long, Long, Long, Long), Double] =
    result.emit((r, s, k, a, v) => (r, s, k, a) -> v).toMap

  /** Runs `plan` over a dense stream on `[0, R)`, one event per time unit
    * and key (η = 1), for two keys. Per node, the items merged into its
    * instances inside `[0, R)` must be `costOf(w)` per key, and their sum
    * `totalCost`.
    */
  private def assertCountsMatchModel(plan: WcgPlan, hint: String): Unit = {
    assert(plan.eta == 1, s"$hint: the model's costs are per event rate")
    val (bigR, keys) = (plan.bigR.toLong, 2L)
    val agg = if (plan.semantics == Semantics.CoveredBy) AggSpec.Min else AggSpec.Sum
    val events = for (t <- Iterator.range(0L, bigR); k <- Iterator.range(0L, keys)) yield (k, t, 1.0)
    val result = onePass(plan, agg, events)
    val perNode = plan.allWindows.map { w =>
      val merged = result.merged(w).collect { case (a, n) if a + w.r <= bigR => n }.sum
      assert(merged % keys == 0, s"$hint: $w")
      w -> BigInt(merged / keys)
    }
    perNode.foreach { case (w, n) =>
      assert(n == plan.costOf(w), s"$hint: $w merged $n items, model cost ${plan.costOf(w)}")
    }
    assert(perNode.map(_._2).sum == plan.totalCost, hint)
  }

  test("count property: Example 6 (both semantics), 7 and 8 at eta=1") {
    Seq(Semantics.CoveredBy, Semantics.PartitionedBy).foreach { sem =>
      val plan = CostModel.minCostPlan(ex1, sem, 1)
      assert(plan.totalCost == 150)
      assertCountsMatchModel(plan, s"Example 6 ($sem)")
    }
    val ex7Plain = CostModel.minCostPlan(ex7, Semantics.PartitionedBy, 1)
    assert(ex7Plain.totalCost == 246)
    assertCountsMatchModel(ex7Plain, "Example 7")
    val ex8 = FactorWindows.minCostPlanWithFactors(ex7, Semantics.PartitionedBy, 1)
    assert(ex8.totalCost == 150 && ex8.factorWindows.nonEmpty)
    assertCountsMatchModel(ex8, "Example 8")
  }

  test("count property: the batch-hopping windows, with and without factor windows") {
    assertCountsMatchModel(CostModel.minCostPlan(hopping, Semantics.CoveredBy, 1), "WCG")
    val fw = FactorWindows.minCostPlanWithFactors(hopping, Semantics.CoveredBy, 1)
    assert(fw.factorWindows.nonEmpty)
    assertCountsMatchModel(fw, "WCG-FW")
  }

  Seq(("Figure 11", "random", Semantics.CoveredBy),
      ("Figure 12", "random-tumbling", Semantics.PartitionedBy)).foreach { case (figure, kind, sem) =>
    test(s"count property: $figure sets at eta=1, WCG and WCG-FW plans") {
      EvalHarness.sets(kind).foreach { case (label, ws) =>
        assertCountsMatchModel(CostModel.minCostPlan(ws, sem, 1), s"$kind/$label WCG")
        assertCountsMatchModel(FactorWindows.minCostPlanWithFactors(ws, sem, 1),
          s"$kind/$label WCG-FW")
      }
    }
  }

  test("count property: sampled sets of any windows (r mod s != 0 too), both semantics, WCG and WCG-FW") {
    var offFootnote4 = 0
    sampled(150) { rnd => Vector.fill(2 + rnd.nextInt(2))(anyWindow(rnd)).distinct } { ws =>
      if (ws.exists(w => w.r % w.s != 0)) offFootnote4 += 1
      Seq(Semantics.CoveredBy, Semantics.PartitionedBy).foreach { sem =>
        assertCountsMatchModel(CostModel.minCostPlan(ws, sem, 1), s"$ws WCG ($sem)")
        assertCountsMatchModel(FactorWindows.minCostPlanWithFactors(ws, sem, 1), s"$ws WCG-FW ($sem)")
      }
    }
    assert(offFootnote4 >= 100, s"$offFootnote4 of 150 sets with r mod s != 0")
  }

  // ---- the pane path -------------------------------------------------------

  test("paneLength divides every root's range and slide on sampled plans") {
    (1L to 40L).foreach { seed =>
      val g = new WindowGen(seed, sMax = 8, kMax = 5)
      Seq(g.randomSet(4) -> Semantics.CoveredBy, g.chainSet(4) -> Semantics.CoveredBy,
          g.randomTumblingSet(4) -> Semantics.PartitionedBy).foreach { case (ws, sem) =>
        Seq(CostModel.minCostPlan(ws, sem, 100),
            FactorWindows.minCostPlanWithFactors(ws, sem, 100)).foreach { plan =>
          val len = ForestEval.paneLength(plan)
          assert(len > 0 && plan.roots.forall(w => w.r % len == 0 && w.s % len == 0),
            s"seed $seed: pane length $len, roots ${plan.roots}")
        }
      }
    }
  }

  /** Random events on two hyper-periods of `plan`, split at random into
    * 1–8 input partitions, each merged into panes of a random length, 1 or
    * `paneLength(plan)`, must give through `fromPanes` the rows and
    * per-node counts of one pass over the events: MIN exactly, SUM and AVG
    * within 1e-9 relative (panes add in another order).
    */
  private def assertPanesMatchOnePass(plan: WcgPlan, hint: String, seed: Long): Unit = {
    val rnd = new scala.util.Random(seed)
    val horizon = (plan.bigR * 2).min(BigInt(1000000)).toLong
    val events = Vector.fill(2000)((rnd.nextInt(3).toLong, (rnd.nextDouble() * horizon).toLong,
      math.round(rnd.nextDouble() * 100000) / 1000.0))
    val aggs = if (plan.semantics == Semantics.CoveredBy) Seq(AggSpec.Min) else Seq(AggSpec.Sum, AggSpec.Avg)
    aggs.foreach { agg =>
      val direct = onePass(plan, agg, events)
      val parts = 1 + rnd.nextInt(8)
      val split = events.groupBy(_ => rnd.nextInt(parts)).values
      val g = ForestEval.paneLength(plan)
      val lengths = split.map(_ => if (rnd.nextBoolean()) 1L else g)
      val viaPanes = ForestEval.fromPanes(plan, agg,
        split.zip(lengths).iterator.flatMap { case (part, len) => panes(len, agg, part) })
      val h = s"$hint (${agg.name}, $parts partitions, pane lengths ${lengths.mkString(",")} of $g)"
      val (want, got) = (rows(direct), rows(viaPanes))
      assert(got.keySet == want.keySet, h)
      want.foreach { case (k, v) =>
        val tolerance = if (agg == AggSpec.Min) 0.0 else 1e-9 * math.max(1.0, math.abs(v))
        assert(math.abs(got(k) - v) <= tolerance, s"$h: $k: ${got(k)} vs $v")
      }
      plan.allWindows.foreach(w => assert(viaPanes.merged(w) == direct.merged(w), s"$h: $w"))
    }
  }

  test("panes from random partitions == one pass: Examples 6-8 and the batch-hopping windows") {
    Seq(Semantics.CoveredBy, Semantics.PartitionedBy).foreach { sem =>
      assertPanesMatchOnePass(CostModel.minCostPlan(ex1, sem, 1), s"Example 6 ($sem)", 1)
    }
    assertPanesMatchOnePass(CostModel.minCostPlan(ex7, Semantics.PartitionedBy, 1), "Example 7", 2)
    assertPanesMatchOnePass(
      FactorWindows.minCostPlanWithFactors(ex7, Semantics.PartitionedBy, 1), "Example 8", 3)
    assertPanesMatchOnePass(CostModel.minCostPlan(hopping, Semantics.CoveredBy, 1), "hopping WCG", 4)
    assertPanesMatchOnePass(
      FactorWindows.minCostPlanWithFactors(hopping, Semantics.CoveredBy, 1), "hopping WCG-FW", 5)
  }

  Seq(("Figure 11", "random", Semantics.CoveredBy),
      ("Figure 12", "random-tumbling", Semantics.PartitionedBy)).foreach { case (figure, kind, sem) =>
    test(s"panes from random partitions == one pass: $figure sets, WCG and WCG-FW plans") {
      EvalHarness.sets(kind).zipWithIndex.foreach { case ((label, ws), i) =>
        assertPanesMatchOnePass(CostModel.minCostPlan(ws, sem, 1), s"$kind/$label WCG", i)
        assertPanesMatchOnePass(FactorWindows.minCostPlanWithFactors(ws, sem, 1),
          s"$kind/$label WCG-FW", 100 + i)
      }
    }
  }

  // ---- the sweep against a brute-force fold ---------------------------------

  /** A random forest under `sem`: a chain of depth 3 from a random root, then
    * up to 4 more windows, each a new root or a child of an earlier window.
    * Slides are any `0 < s ≤ r`, so `r mod s ≠ 0` is common. Under
    * partitioned-by, a window with children is tumbling (Theorem 4). Some
    * inner windows are factor windows, left out of the rows.
    */
  private def randomForest(rnd: Random, sem: Semantics): WcgPlan = {
    val partitioned = sem == Semantics.PartitionedBy
    def root(): Window = {
      val s = 1L + rnd.nextInt(6)
      if (partitioned) Window.tumbling(s) else Window(s + rnd.nextInt(12), s)
    }
    def child(p: Window, tumbling: Boolean): Window = {
      val i = 1L + rnd.nextInt(3)
      if (partitioned) {
        val j = math.max(i, 2L + rnd.nextInt(3))
        if (tumbling) Window.tumbling(p.s * j) else Window(p.s * j, p.s * i)
      } else Window(p.r + p.s * math.max(i, 1L + rnd.nextInt(4)), p.s * i)
    }
    val parent = mutable.LinkedHashMap.empty[Window, Option[Window]]
    val chain = Iterator.iterate(root())(child(_, tumbling = true)).take(4).toVector
    chain.zip(None +: chain.map(Option(_))).foreach { case (w, p) => parent.getOrElseUpdate(w, p) }
    (1 to rnd.nextInt(5)).foreach { _ =>
      val feeders = parent.keys.filter(w => !partitioned || w.isTumbling).toVector
      if (rnd.nextInt(4) == 0) parent.getOrElseUpdate(root(), None)
      else {
        val p = feeders(rnd.nextInt(feeders.size))
        parent.getOrElseUpdate(child(p, tumbling = rnd.nextBoolean()), Some(p))
      }
    }
    val inner = parent.values.flatten.toSet
    val factors = parent.keys.filter(w => inner.contains(w) && rnd.nextInt(3) == 0).toVector
    val plan = WcgPlan(parent.keys.filterNot(factors.contains).toVector, factors, parent.toMap,
      sem, 1, 1)
    assert(plan.isForest && plan.levels.size >= 4 &&
      plan.allWindows.forall(w => plan.parent(w).forall(p => sem.relates(w, p))), plan.parent)
    plan
  }

  /** Events of four keys with integer values, so that every aggregate is
    * exact in any order: key 0 dense on `[−L, 10L)`, key 1 in bursts with
    * gaps longer than any range, key 2 near 2⁶⁰, key −7 mostly before 0;
    * `L` is the largest range.
    */
  private def randomEvents(rnd: Random, plan: WcgPlan): Vector[(Long, Long, Double)] = {
    val bigL = plan.allWindows.map(_.r).max
    def value(): Double = rnd.nextInt(1000).toDouble
    val dense = Vector.fill(300)((0L, -bigL + rnd.nextLong(11 * bigL), value()))
    var at = 0L
    val bursts = (0 until 8).flatMap { _ =>
      at += 3 * bigL + rnd.nextLong(bigL)
      Vector.fill(1 + rnd.nextInt(6))((1L, at + rnd.nextLong(bigL), value()))
    }
    val far = (1L << 60) + rnd.nextLong(1000)
    val high = Vector.fill(60)((2L, far + rnd.nextLong(4 * bigL), value()))
    val early = Vector.fill(30)((-7L, -5 * bigL + rnd.nextLong(5 * bigL + 2), value()))
    rnd.shuffle(dense ++ bursts ++ high ++ early)
  }

  /** `agg` of `vs` in plain Scala. */
  private def fold(agg: AggSpec, vs: Seq[Double]): Double = agg match {
    case AggSpec.Min => vs.min
    case AggSpec.Max => vs.max
    case AggSpec.Sum => vs.sum
    case AggSpec.Count => vs.size.toDouble
    case AggSpec.Avg => vs.sum / vs.size
  }

  /** For every node of `plan`, key → instance start → the values of the
    * events in it: each event's instances found by walking down from
    * `⌊t/s⌋` while the instance still reaches past `t`.
    */
  private def bruteForce(plan: WcgPlan, events: Seq[(Long, Long, Double)]): Map[Window, Map[(Long, Long), Seq[Double]]] =
    plan.allWindows.map { w =>
      w -> events.flatMap { case (k, t, v) =>
        Iterator.iterate(Math.floorDiv(t, w.s))(_ - 1).takeWhile(m => m >= 0 && m * w.s + w.r > t)
          .map(m => (k, m * w.s) -> v)
      }.groupMap(_._1)(_._2)
    }.toMap

  /** The items merged into each instance of each node, by instance start,
    * summed over keys, from `bruteForce`: a root's items are its events,
    * another node's the parent instances with events that lie inside it.
    */
  private def bruteItems(plan: WcgPlan, brute: Map[Window, Map[(Long, Long), Seq[Double]]]): Map[Window, Map[Long, Long]] =
    plan.allWindows.map { w =>
      val items = plan.parent(w) match {
        case None => brute(w).toSeq.map { case ((_, a), vs) => a -> vs.size.toLong }
        case Some(p) => brute(w).keys.toSeq.map { case (k, a) =>
          val inside = Iterator.iterate(Math.floorDiv(a + p.s - 1, p.s) * p.s)(_ + p.s)
            .takeWhile(_ + p.r <= a + w.r)
          a -> inside.count(ap => brute(p).contains((k, ap))).toLong
        }
      }
      w -> items.groupMapReduce(_._1)(_._2)(_ + _)
    }.toMap

  Seq(Semantics.CoveredBy, Semantics.PartitionedBy).foreach { sem =>
    test(s"sweep == brute-force fold per instance on random forests ($sem), one pass and panes") {
      val rnd = new Random(if (sem == Semantics.CoveredBy) 61 else 62)
      (1 to 40).foreach { round =>
        val plan = randomForest(rnd, sem)
        val events = randomEvents(rnd, plan)
        val brute = bruteForce(plan, events)
        val items = bruteItems(plan, brute)
        val g = ForestEval.paneLength(plan)
        AggSpec.all.filter(_.semantics == sem).foreach { agg =>
          val want = plan.userWindows.flatMap { w =>
            brute(w).map { case ((k, a), vs) => (w.r, w.s, k, a) -> fold(agg, vs) }
          }.toMap
          val split = events.groupBy(_ => rnd.nextInt(4)).values
          Seq("one pass" -> onePass(plan, agg, events),
              s"panes of length $g" -> ForestEval.fromPanes(plan, agg,
                split.iterator.flatMap(part => panes(g, agg, part)))
          ).foreach { case (path, result) =>
            val hint = s"round $round, ${agg.name}, $path, ${plan.parent}"
            assert(rows(result) == want, s"$hint: rows")
            plan.allWindows.foreach(w => assert(result.merged(w) == items(w), s"$hint: merged items of $w"))
          }
        }
      }
    }
  }

  test("fromPanes refuses panes whose length does not divide paneLength") {
    val plan = CostModel.minCostPlan(hopping, Semantics.CoveredBy, 1)
    assert(ForestEval.paneLength(plan) == 10)
    val refused = intercept[IllegalArgumentException](
      ForestEval.fromPanes(plan, AggSpec.Min, panes(4, AggSpec.Min, Seq((0L, 5L, 1.0)))))
    assert(refused.getMessage.contains("panes of length 4"))
  }

  test("no panes, no rows: an empty reduce partition") {
    val plan = CostModel.minCostPlan(hopping, Semantics.CoveredBy, 1)
    val result = ForestEval.fromPanes(plan, AggSpec.Min, Iterator.empty)
    assert(rows(result).isEmpty && plan.allWindows.forall(result.merged(_).isEmpty))
  }

  // ---- allocation ----------------------------------------------------------

  test("building panes allocates less than 1 byte per event: 10^6 events, 200 keys x 80 panes") {
    val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val (n, keys, panesPerKey, g) = (1000000, 200, 80, 1000L)
    // Three events per (key, pane), handed out again and again by an
    // iterator that allocates nothing: what is measured is the builder's
    // `add` and `result` alone.
    val pool = Array.tabulate(3 * keys * panesPerKey) { i =>
      ((i % keys).toLong, (i / keys % panesPerKey) * g + i % 997, (i % 101).toDouble)
    }
    def events(total: Int): Iterator[(Long, Long, Double)] = new Iterator[(Long, Long, Double)] {
      private var i = 0
      def hasNext: Boolean = i < total
      def next(): (Long, Long, Double) = { i += 1; pool(i % pool.length) }
    }
    def build(size: Int): Array[(Long, ForestEval.Panes)] =
      panes(g, AggSpec.Sum, events(size)).toArray
    build(50000)
    val before = threads.getCurrentThreadAllocatedBytes
    val built = build(n)
    val bytes = threads.getCurrentThreadAllocatedBytes - before
    assert(built.length == keys && built.forall(_._2.start.length == panesPerKey))
    assert(built.map(_._2.count.sum).sum == n)
    assert(bytes < n, s"$bytes bytes allocated for $n events")
  }
}
