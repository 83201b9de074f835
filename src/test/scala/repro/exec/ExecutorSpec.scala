package repro.exec

import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, TimeUnit}
import org.apache.spark.ShuffleDependency
import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.execution.GenerateExec
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType}
import org.apache.spark.storage.StorageLevel
import repro.{Oracle, SparkSpec, SynthData}
import repro.core._
import repro.gen.WindowGen
import scala.jdk.CollectionConverters._

/** End-to-end correctness of the rewriting: the hierarchical (min-cost WCG)
  * plan must return exactly the baseline plan's rows, for every aggregate,
  * on tumbling, hopping, and randomly generated window sets; and the
  * baseline itself is checked against DuckDB.
  */
class ExecutorSpec extends SparkSpec {

  /** Reads the final adaptive plan after an action ran. */
  private object AqePlan extends AdaptiveSparkPlanHelper

  private val ex1 = Seq(10L, 20L, 30L, 40L).map(Window.tumbling)
  private val ex7 = Seq(20L, 30L, 40L).map(Window.tumbling)

  private def events(n: Long = 3000, horizon: Long = 240, keys: Long = 4,
                     seed: Long = 7): DataFrame =
    SynthData.events(spark, n, horizon, keys, seed)

  /** Keyed rows: all columns except the trailing `value` form the key; the
    * value is compared with a tolerance (hierarchical AVG/SUM associate
    * float additions differently than the flat plan).
    */
  private def keyed(rows: Seq[Row]): Map[String, Double] =
    rows.map { r =>
      val key = (0 until r.length - 1).map(i => String.valueOf(r.get(i))).mkString("|")
      key -> r.getDouble(r.length - 1)
    }.toMap

  private def assertSameResults(a: DataFrame, b: DataFrame, hint: String): Unit =
    assertSameRows(a.collect().toSeq, b.collect().toSeq, hint)

  private def assertSameRows(a: Seq[Row], b: Seq[Row], hint: String): Unit = {
    val (ka, kb) = (keyed(a), keyed(b))
    assert(ka.keySet == kb.keySet,
      s"$hint: ${ka.size} vs ${kb.size} rows; " +
        s"onlyA=${(ka.keySet -- kb.keySet).take(3)} onlyB=${(kb.keySet -- ka.keySet).take(3)}")
    ka.foreach { case (k, v) =>
      assert(math.abs(v - kb(k)) <= 1e-6 * math.max(1.0, math.abs(v)),
        s"$hint: value mismatch at $k: $v vs ${kb(k)}")
    }
  }

  private def checkPlanEquality(windows: Seq[Window], agg: AggSpec,
                                ev: DataFrame, withFactors: Boolean,
                                hint: String): Unit = {
    val plan =
      if (withFactors) FactorWindows.minCostPlanWithFactors(windows, agg.semantics, 100)
      else CostModel.minCostPlan(windows, agg.semantics, 100)
    val base = Executor.baseline(ev, windows, agg)
    val rew  = Executor.rewritten(ev, plan, agg)
    assertSameResults(base, rew, s"$hint (agg=${agg.name}, factors=$withFactors)")
  }

  // ---- oracle: the baseline itself is right ------------------------------

  private def oracleCheck(w: Window, agg: AggSpec, duckAgg: String): Unit =
    oracleCheckOn(events(1500, 120), w, agg, duckAgg)

  private def oracleCheckOn(ev: DataFrame, w: Window, agg: AggSpec, duckAgg: String): Unit = {
    val sparkDf = Executor
      .finish(Executor.subAggFromEvents(ev, w, agg), w, agg)
      .select(col("k"), col("wstart"), col("value"))
    val sql =
      s"""SELECT CAST(e.k AS BIGINT) AS k, ws.a AS wstart,
         |       CAST($duckAgg AS DOUBLE) AS value
         |FROM events e, (SELECT range AS a FROM range(0, 120, ${w.s})) ws
         |WHERE CAST(e.t AS BIGINT) >= ws.a AND CAST(e.t AS BIGINT) < ws.a + ${w.r}
         |GROUP BY 1, 2""".stripMargin
    Oracle.assertEquivalent(sparkDf, sql, "events" -> ev)
  }

  test("oracle: tumbling MIN matches DuckDB")  { oracleCheck(Window(20, 20), AggSpec.Min,   "MIN(CAST(e.v AS DOUBLE))") }
  test("oracle: tumbling MAX matches DuckDB")  { oracleCheck(Window(30, 30), AggSpec.Max,   "MAX(CAST(e.v AS DOUBLE))") }
  test("oracle: hopping MIN matches DuckDB")   { oracleCheck(Window(20, 5),  AggSpec.Min,   "MIN(CAST(e.v AS DOUBLE))") }
  test("oracle: hopping SUM matches DuckDB")   { oracleCheck(Window(12, 4),  AggSpec.Sum,   "SUM(CAST(e.v AS DOUBLE))") }
  test("oracle: tumbling COUNT matches DuckDB"){ oracleCheck(Window(15, 15), AggSpec.Count, "COUNT(*)") }
  test("oracle: hopping AVG matches DuckDB")   { oracleCheck(Window(24, 8),  AggSpec.Avg,   "AVG(CAST(e.v AS DOUBLE))") }

  test("oracle: baseline ignores a null v in MIN/MAX/SUM/AVG and counts it in COUNT, as DuckDB") {
    import spark.implicits._
    // Instance 0 holds v = 5.0, null, 7.0 (AVG 6.0, not 4.0); instance 10
    // holds only a null v (every aggregate but COUNT is null there).
    val ev = Seq[(Long, Long, java.lang.Double)](
      (1L, 1L, 5.0), (2L, 1L, null), (3L, 1L, 7.0), (12L, 1L, null)).toDF("t", "k", "v")
    Seq(AggSpec.Min -> "MIN", AggSpec.Max -> "MAX", AggSpec.Sum -> "SUM", AggSpec.Avg -> "AVG")
      .foreach { case (agg, f) => oracleCheckOn(ev, Window(10, 10), agg, s"$f(CAST(e.v AS DOUBLE))") }
    oracleCheckOn(ev, Window(10, 10), AggSpec.Count, "COUNT(*)")
  }

  test("oracle: the rewritten Example-1 MIN plan matches DuckDB window-by-window") {
    val ev = events(1500, 120)
    val plan = CostModel.minCostPlan(ex1, Semantics.CoveredBy, 100)
    val rew = Executor.rewritten(ev, plan, AggSpec.Min)
    ex1.foreach { w =>
      val sparkDf = rew.filter(col("w_r") === w.r)
        .select(col("k"), col("wstart"), col("value"))
      val sql =
        s"""SELECT CAST(e.k AS BIGINT) AS k, ws.a AS wstart,
           |       CAST(MIN(CAST(e.v AS DOUBLE)) AS DOUBLE) AS value
           |FROM events e, (SELECT range AS a FROM range(0, 120, ${w.s})) ws
           |WHERE CAST(e.t AS BIGINT) >= ws.a AND CAST(e.t AS BIGINT) < ws.a + ${w.r}
           |GROUP BY 1, 2""".stripMargin
      Oracle.assertEquivalent(sparkDf, sql, "events" -> ev)
    }
  }

  // ---- baseline == rewritten on the worked examples -----------------------

  AggSpec.all.foreach { agg =>
    test(s"Example 1 windows: rewritten == baseline for ${agg.name}") {
      checkPlanEquality(ex1, agg, events(), withFactors = false, "Example 1")
    }
    test(s"Example 7 windows with factor windows: rewritten == baseline for ${agg.name}") {
      checkPlanEquality(ex7, agg, events(), withFactors = true, "Example 7")
    }
  }

  test("Example 7 factor plan really contains the factor window during execution") {
    val plan = FactorWindows.minCostPlanWithFactors(ex7, Semantics.CoveredBy, 100)
    assert(plan.factorWindows.contains(Window.tumbling(10)))
    val rew = Executor.rewritten(events(), plan, AggSpec.Min)
    // Factor window results must not leak into the output.
    assert(rew.select("w_r").distinct().collect().map(_.getLong(0)).toSet ==
      Set(20L, 30L, 40L))
  }

  // ---- hopping windows ----------------------------------------------------

  test("hopping coverage chain: rewritten == baseline for MIN") {
    // W(10,2) covered by W(8,2): the Example 2 pair, plus a deeper window.
    val ws = Seq(Window(8, 2), Window(10, 2), Window(14, 2))
    val plan = CostModel.minCostPlan(ws, Semantics.CoveredBy, 100)
    assert(plan.parent(Window(10, 2)).nonEmpty, "coverage edge should be used")
    checkPlanEquality(ws, AggSpec.Min, events(), withFactors = false, "hopping chain")
  }

  test("hopping windows partitioned by a tumbling base: all aggregates agree") {
    val ws = Seq(Window.tumbling(5), Window(20, 10), Window(30, 15))
    AggSpec.all.foreach { agg =>
      checkPlanEquality(ws, agg, events(), withFactors = false, "hopping over tumbling")
    }
  }

  test("hopping windows with factor windows: MIN and MAX agree") {
    val ws = Seq(Window(40, 10), Window(80, 20), Window(120, 40))
    Seq(AggSpec.Min, AggSpec.Max).foreach { agg =>
      checkPlanEquality(ws, agg, events(3000, 480), withFactors = true, "hopping FW")
    }
  }

  // ---- randomized window sets --------------------------------------------

  (1L to 6L).foreach { seed =>
    test(s"random window set (seed $seed): rewritten == baseline, all aggregates") {
      val ws = new WindowGen(seed, sMax = 6, kMax = 4).randomSet(4)
      val ev = events(2500, 200, keys = 3, seed = seed)
      AggSpec.all.foreach(agg =>
        checkPlanEquality(ws, agg, ev, withFactors = false, s"random seed=$seed"))
    }
  }

  (1L to 4L).foreach { seed =>
    test(s"random chain set (seed $seed): rewritten-with-factors == baseline") {
      val ws = new WindowGen(seed, sMax = 4, kMax = 3).chainSet(4)
      val ev = events(2500, 300, keys = 3, seed = seed + 50)
      Seq(AggSpec.Min, AggSpec.Sum, AggSpec.Avg).foreach(agg =>
        checkPlanEquality(ws, agg, ev, withFactors = true, s"chain seed=$seed"))
    }
  }

  (1L to 4L).foreach { seed =>
    test(s"random tumbling set (seed $seed): rewritten-with-factors == baseline") {
      val ws = new WindowGen(seed, sMax = 5, kMax = 4).randomTumblingSet(4)
      val ev = events(2500, 250, keys = 3, seed = seed + 90)
      Seq(AggSpec.Count, AggSpec.Min, AggSpec.Avg).foreach(agg =>
        checkPlanEquality(ws, agg, ev, withFactors = true, s"tumbling seed=$seed"))
    }
  }

  // ---- plan mechanics ------------------------------------------------------

  test("rewritten plan refuses a semantics mismatch") {
    val plan = CostModel.minCostPlan(ex1, Semantics.CoveredBy, 1)
    assertThrows[IllegalArgumentException](
      Executor.rewritten(events(), plan, AggSpec.Sum))
  }

  test("rewritten plan refuses an empty window set, as the baseline does") {
    val plan = CostModel.minCostPlan(Nil, Semantics.CoveredBy, 1)
    assertThrows[IllegalArgumentException](
      Executor.rewritten(events(), plan, AggSpec.Min))
  }

  test("rewritten leaves the caller's persisted events cached") {
    val plan = FactorWindows.minCostPlanWithFactors(ex7, Semantics.CoveredBy, 100)
    val ev = events().persist(StorageLevel.MEMORY_ONLY)
    try {
      ev.count()
      Executor.rewritten(ev, plan, AggSpec.Min).collect()
      assert(ev.storageLevel == StorageLevel.MEMORY_ONLY, "caller's input was unpersisted")
    } finally ev.unpersist(blocking = true)
  }

  // ---- reading the events ----------------------------------------------------

  /** Every RDD in the lineage of `rdd`, `rdd` first. */
  private def lineage(rdd: RDD[_]): Seq[RDD[_]] =
    rdd +: rdd.dependencies.flatMap(d => lineage(d.rdd))

  test("rewritten reads k, t and v by name, at any ordinal and integral or numeric width") {
    val ev = events()
    Seq(
      "int k and t, float v" -> ev.select(col("k").cast("int").as("k"),
        col("t").cast("int").as("t"), col("v").cast("float").as("v")),
      "short k, decimal v" -> ev.select(col("k").cast("short").as("k"), col("t"),
        col("v").cast("decimal(10,3)").as("v")),
      "(v, note, t, k)" -> ev.select(col("v"), concat(lit("note "), col("k")).as("note"),
        col("t"), col("k")),
      "upper-case names, case-insensitive session" -> ev.toDF("T", "K", "V")
    ).foreach { case (hint, input) =>
      Seq(AggSpec.Min, AggSpec.Sum, AggSpec.Avg).foreach(agg =>
        checkPlanEquality(ex7, agg, input, withFactors = true, hint))
    }
  }

  test("rewritten refuses a missing k, t or v, or one of another type, before any job runs") {
    val plan = CostModel.minCostPlan(ex1, Semantics.CoveredBy, 100)
    val caseSensitive = spark.newSession()
    caseSensitive.conf.set("spark.sql.caseSensitive", "true")
    Seq(
      events().withColumn("k", col("k").cast("string")) -> "column k has type string",
      events().withColumn("t", col("t").cast("double")) -> "column t has type double",
      events().withColumn("v", col("v").cast("string")) -> "column v has type string",
      events().drop("v") -> "no column v",
      SynthData.events(caseSensitive, 500, 120).toDF("t", "K", "v") -> "no column k"
    ).foreach { case (ev, expected) =>
      var refused: IllegalArgumentException = null
      val jobs = stagesPerJob {
        refused = intercept[IllegalArgumentException](Executor.rewritten(ev, plan, AggSpec.Min))
      }
      assert(refused.getMessage.contains(expected), refused.getMessage)
      assert(jobs.isEmpty, s"$expected: refused after $jobs jobs")
    }
  }

  test("two rewritten calls on one DataFrame read its one planned RDD, with no plan of their own") {
    val ev = events()
    val plan = FactorWindows.minCostPlanWithFactors(ex7, Semantics.CoveredBy, 100)
    val reads = Seq(AggSpec.Min, AggSpec.Max).map(agg =>
      lineage(Executor.rewritten(ev, plan, agg).queryExecution.toRdd).map(_.id))
    val planned = ev.queryExecution.toRdd.id
    reads.foreach(ids => assert(ids.contains(planned), s"RDD $planned not in the lineage $ids"))
  }

  test("events persisted before their first use are read through the cache") {
    val plan = FactorWindows.minCostPlanWithFactors(ex7, Semantics.CoveredBy, 100)
    val ev = events(n = 3000).persist(StorageLevel.MEMORY_ONLY)
    try {
      assertSameResults(Executor.baseline(ev, ex7, AggSpec.Min),
        Executor.rewritten(ev, plan, AggSpec.Min), "persisted events")
      val executed = ev.queryExecution.executedPlan
      val scans = AqePlan.collect(executed) { case s: InMemoryTableScanExec => s }
      assert(scans.size == 1, s"expected one cached scan:\n$executed")
      assert(scans.head.metrics("numOutputRows").value == 3000, s"cache not read:\n$executed")
      assert(ev.storageLevel == StorageLevel.MEMORY_ONLY, "caller's input was unpersisted")
    } finally ev.unpersist(blocking = true)
  }

  // ---- plan shape: one job over one key shuffle ---------------------------

  private def depthOf(plan: WcgPlan): Int = plan.levels.size - 1

  /** The number of stages of each job that `body` runs on this thread, in
    * order. A marker job run after `body` proves that the listener has seen
    * every job `body` started: the listener bus delivers events in order.
    */
  private def stagesPerJob(body: => Unit): Seq[Int] = {
    val sc = spark.sparkContext
    val (key, tag) = ("repro.test.jobs", s"jobs-${System.nanoTime}")
    val seen = new ConcurrentLinkedQueue[Int]
    val markerSeen = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty(key)).orNull match {
          case `tag` => seen.add(e.stageInfos.size)
          case t if t == s"$tag.marker" => markerSeen.countDown()
          case _ =>
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setLocalProperty(key, tag)
      body
      sc.setLocalProperty(key, s"$tag.marker")
      sc.parallelize(Seq(1), 1).count()
      assert(markerSeen.await(60, TimeUnit.SECONDS), "listener never saw the marker job")
    } finally {
      sc.setLocalProperty(key, null)
      sc.removeSparkListener(listener)
    }
    seen.asScala.toSeq
  }

  /** Shuffle dependencies in the lineage of `rdd`. */
  private def shuffleDependencies(rdd: RDD[_]): Int = rdd.dependencies.map {
    case d: ShuffleDependency[_, _, _] => 1 + shuffleDependencies(d.rdd)
    case d => shuffleDependencies(d.rdd)
  }.sum

  private def assertOneJobPerForest(windows: Seq[Window], agg: AggSpec): Unit = {
    val plan = FactorWindows.minCostPlanWithFactors(windows, agg.semantics, 100)
    assert(depthOf(plan) >= 1, s"plan too shallow to test: ${plan.parent}")
    val df = Executor.rewritten(events(3000, 480), plan, agg)
    assert(stagesPerJob(df.collect()) == Seq(2), s"expected one job of two stages, depth ${depthOf(plan)}")
    assert(shuffleDependencies(df.queryExecution.toRdd) == 1, df.queryExecution.toRdd.toDebugString)
    val executed = AqePlan.stripAQEPlan(df.queryExecution.executedPlan)
    assert(AqePlan.collect(executed) { case e: ShuffleExchangeExec => e }.isEmpty,
      s"expected no exchange:\n$executed")
    assert(AqePlan.collect(executed) { case g: GenerateExec => g }.isEmpty,
      s"expected no explode:\n$executed")
  }

  test("Example 7 with factor windows runs as one job over one key shuffle") {
    assertOneJobPerForest(ex7, AggSpec.Sum)
  }

  test("hopping factor-window plan runs as one job over one key shuffle") {
    assertOneJobPerForest(Seq(Window(40, 10), Window(80, 20), Window(120, 40)), AggSpec.Min)
  }

  test("a depth-2 pass-through plan runs as one job over one key shuffle") {
    assertOneJobPerForest(Seq(5L, 10L, 20L).map(Window.tumbling), AggSpec.Count)
  }

  // ---- sampled plans against the baseline and DuckDB ----------------------

  private val duckAgg = Map[AggSpec, String](
    AggSpec.Min -> "MIN(CAST(e.v AS DOUBLE))", AggSpec.Max -> "MAX(CAST(e.v AS DOUBLE))",
    AggSpec.Sum -> "SUM(CAST(e.v AS DOUBLE))", AggSpec.Count -> "COUNT(*)",
    AggSpec.Avg -> "AVG(CAST(e.v AS DOUBLE))")

  /** The `(w_r, w_s, k, wstart, value)` rows of every window, in DuckDB. */
  private def oracleSql(ws: Seq[Window], agg: AggSpec, horizon: Long): String =
    ws.distinct.map { w =>
      s"""SELECT CAST(${w.r} AS BIGINT) AS w_r, CAST(${w.s} AS BIGINT) AS w_s,
         |       CAST(e.k AS BIGINT) AS k, ws.a AS wstart,
         |       CAST(${duckAgg(agg)} AS DOUBLE) AS value
         |FROM events e, (SELECT range AS a FROM range(0, $horizon, ${w.s})) ws
         |WHERE CAST(e.t AS BIGINT) >= ws.a AND CAST(e.t AS BIGINT) < ws.a + ${w.r}
         |GROUP BY 1, 2, 3, 4""".stripMargin
    }.mkString("\nUNION ALL\n")

  /** The factor-window plan of `ws` (the Algorithm 1 plan if not
    * `withFactors`) run by `rewritten` equals the baseline and DuckDB, on
    * `horizon` time units of events in `ev`'s session, at the tolerance of
    * `assertSameResults`: a hierarchical sum adds in another order than a
    * flat one, so values may differ in the last bits.
    */
  private def checkAgainstOracle(ws: Seq[Window], agg: AggSpec, ev: DataFrame,
                                 horizon: Long, hint: String, withFactors: Boolean = true): Unit = {
    val plan =
      if (withFactors) FactorWindows.minCostPlanWithFactors(ws, agg.semantics, 100)
      else CostModel.minCostPlan(ws, agg.semantics, 100)
    val rew = Executor.rewritten(ev, plan, agg)
    val rows = rew.collect().toSeq
    assertSameRows(Executor.baseline(ev, ws, agg).collect().toSeq, rows, s"$hint (agg=${agg.name})")
    val (cols, duck) = Oracle.query(oracleSql(ws, agg, horizon), "events" -> ev)
    assert(cols == rew.columns.toSeq)
    assertSameRows(duck, rows, s"$hint (agg=${agg.name}, DuckDB)")
  }

  (1L to 3L).foreach { seed =>
    test(s"sampled hopping plans (seed $seed): rewritten == baseline == DuckDB, MIN/MAX") {
      val ws = new WindowGen(seed + 200, sMax = 6, kMax = 4).chainSet(3)
      assert(ws.exists(!_.isTumbling) &&
        FactorWindows.minCostPlanWithFactors(ws, Semantics.CoveredBy, 100).factorWindows.nonEmpty)
      val ev = events(1500, 240, keys = 3, seed = seed + 300)
      Seq(AggSpec.Min, AggSpec.Max).foreach(agg =>
        checkAgainstOracle(ws, agg, ev, 240, s"hopping seed=$seed $ws"))
    }
    test(s"sampled partitioned-by plans (seed $seed): rewritten == baseline == DuckDB") {
      val g = new WindowGen(seed + 400, sMax = 5, kMax = 4)
      val ws = g.randomTumblingSet(3) :+ g.randomWindow()
      val ev = events(1500, 240, keys = 3, seed = seed + 500)
      Seq(AggSpec.Sum, AggSpec.Count, AggSpec.Avg).foreach(agg =>
        checkAgainstOracle(ws, agg, ev, 240, s"partitioned-by seed=$seed $ws"))
    }
  }

  test("{W(10,4), W(12,12)}, off footnote 4: rewritten == baseline == DuckDB, MIN/SUM/AVG, with and without factor windows") {
    val ws = Seq(Window(10, 4), Window.tumbling(12))
    Seq(Semantics.CoveredBy, Semantics.PartitionedBy).foreach(sem =>
      assert(FactorWindows.minCostPlanWithFactors(ws, sem, 100).factorWindows == Vector(Window.tumbling(2))))
    val ev = events(1500, 240, keys = 3, seed = 19)
    for (agg <- Seq(AggSpec.Min, AggSpec.Sum, AggSpec.Avg); withFactors <- Seq(false, true))
      checkAgainstOracle(ws, agg, ev, 240, s"$ws factors=$withFactors", withFactors)
  }

  Seq(1, 16).foreach { partitions =>
    test(s"rewritten == baseline == DuckDB with $partitions shuffle partitions for 3 keys") {
      val session = spark.newSession()
      session.conf.set("spark.sql.shuffle.partitions", partitions.toString)
      val ev = SynthData.events(session, 1500, 240, 3, 11)
      checkAgainstOracle(Seq(Window(40, 10), Window(80, 20), Window(120, 40)), AggSpec.Min,
        ev, 240, s"$partitions partitions")
      checkAgainstOracle(ex7, AggSpec.Avg, ev, 240, s"$partitions partitions")
    }
  }

  test("rewritten runs min(spark.sql.shuffle.partitions, default parallelism) reduce tasks") {
    val parallelism = spark.sparkContext.defaultParallelism
    val plan = FactorWindows.minCostPlanWithFactors(ex7, Semantics.CoveredBy, 100)
    Seq(1, 200).foreach { partitions =>
      val session = spark.newSession()
      session.conf.set("spark.sql.shuffle.partitions", partitions.toString)
      val df = Executor.rewritten(SynthData.events(session, 500, 120, 4, 3), plan, AggSpec.Min)
      assert(df.queryExecution.toRdd.getNumPartitions == math.min(partitions, parallelism),
        s"$partitions shuffle partitions, default parallelism $parallelism")
    }
  }

  test("rewritten == baseline == DuckDB with fewer keys than reduce partitions") {
    // One key: with a default parallelism of 2 or more, some reduce
    // partitions get no panes at all.
    val session = spark.newSession()
    session.conf.set("spark.sql.shuffle.partitions", "16")
    val ev = SynthData.events(session, 1500, 240, 1, 17)
    checkAgainstOracle(Seq(Window(40, 10), Window(80, 20), Window(120, 40)), AggSpec.Min,
      ev, 240, "one key")
    checkAgainstOracle(ex7, AggSpec.Avg, ev, 240, "one key")
  }

  test("pane states of one key from 7 input partitions merge: rewritten == baseline == DuckDB") {
    val ev = SynthData.events(spark, 1500, 240, 3, 13).repartition(7)
    assert(ev.rdd.getNumPartitions == 7)
    Seq(AggSpec.Sum, AggSpec.Count, AggSpec.Avg).foreach(agg =>
      checkAgainstOracle(ex7, agg, ev, 240, "7 input partitions"))
    checkAgainstOracle(Seq(Window(40, 10), Window(80, 20), Window(120, 40)), AggSpec.Min,
      ev, 240, "7 input partitions, hopping")
  }

  test("nanosecond event times: rewritten == baseline") {
    // Past 2^53 a double no longer holds every long: the instance of an
    // event must still come out of exact integer arithmetic.
    val t0 = 1700000000000000000L
    val ev = events(1500, 120).withColumn("t", col("t") + t0)
    val ws = Seq(Window(10, 10), Window(20, 10), Window(40, 20))
    Seq(AggSpec.Count, AggSpec.Max).foreach(agg =>
      checkPlanEquality(ws, agg, ev, withFactors = true, "nanoseconds"))
    val counts = Executor.baseline(ev, Seq(Window(10, 10)), AggSpec.Count)
      .select(col("k"), col("wstart"), col("value"))
    Oracle.assertEquivalent(counts,
      s"""SELECT CAST(e.k AS BIGINT) AS k, CAST(e.t AS BIGINT) // 10 * 10 AS wstart,
         |       CAST(COUNT(*) AS DOUBLE) AS value
         |FROM events e GROUP BY 1, 2""".stripMargin, "events" -> ev)
  }

  // ---- forest shapes and column names --------------------------------------

  test("a plan without WCG edges (depth 0): rewritten == baseline, all aggregates") {
    val ws = Seq(Window.tumbling(7), Window(10, 5))
    AggSpec.all.foreach { agg =>
      val plan = CostModel.minCostPlan(ws, agg.semantics, 100)
      assert(depthOf(plan) == 0 && plan.factorWindows.isEmpty)
      assertSameResults(Executor.baseline(events(), ws, agg),
        Executor.rewritten(events(), plan, agg), s"depth 0 (agg=${agg.name})")
    }
  }

  test("a forest of two roots with different depths: rewritten == baseline, all aggregates") {
    val ws = Seq(6L, 12L, 24L, 7L, 14L).map(Window.tumbling)
    AggSpec.all.foreach { agg =>
      val plan = CostModel.minCostPlan(ws, agg.semantics, 100)
      assert(plan.roots.toSet == Set(Window.tumbling(6), Window.tumbling(7)))
      assert(plan.parent(Window.tumbling(24)).contains(Window.tumbling(12)))
      assertSameResults(Executor.baseline(events(), ws, agg),
        Executor.rewritten(events(), plan, agg), s"two roots (agg=${agg.name})")
    }
  }

  test("a user window passed through two levels: rewritten == baseline, all aggregates") {
    val ws = Seq(5L, 10L, 20L).map(Window.tumbling)
    AggSpec.all.foreach { agg =>
      val plan = CostModel.minCostPlan(ws, agg.semantics, 100)
      assert(plan.roots == Vector(Window.tumbling(5)) && depthOf(plan) == 2)
      assertSameResults(Executor.baseline(events(), ws, agg),
        Executor.rewritten(events(), plan, agg), s"pass-through (agg=${agg.name})")
    }
  }

  test("output schema is (w_r, w_s, k, wstart, value)") {
    val df = Executor.baseline(events(500, 60), Seq(Window(10, 5)), AggSpec.Min)
    assert(df.columns.toSeq == Seq("w_r", "w_s", "k", "wstart", "value"))
    // The same names and types from both plans, for a long and an int k.
    val ws = Seq(Window(10, 5), Window(20, 10))
    val plan = CostModel.minCostPlan(ws, Semantics.CoveredBy, 100)
    Seq("long k" -> events(500, 60), "int k" -> events(500, 60).withColumn("k", col("k").cast("int")))
      .foreach { case (hint, ev) =>
        val Seq(base, rew) = Seq(Executor.baseline(ev, ws, AggSpec.Min), Executor.rewritten(ev, plan, AggSpec.Min))
          .map(_.schema.map(f => f.name -> f.dataType))
        assert(base == rew, hint)
        assert(rew == Seq("w_r", "w_s", "k", "wstart").map(_ -> LongType) :+ ("value" -> DoubleType), hint)
      }
  }

  test("a repeated window: baseline == rewritten, each row once") {
    val ws = Seq(Window.tumbling(10), Window.tumbling(10), Window(20, 10))
    val plan = CostModel.minCostPlan(ws, Semantics.CoveredBy, 100)
    val (base, rew) = (Executor.baseline(events(), ws, AggSpec.Max),
      Executor.rewritten(events(), plan, AggSpec.Max))
    assert(base.count() == rew.count(), "a repeated window was output twice")
    assertSameResults(base, rew, "repeated window")
  }

  test("every window instance with events appears exactly once per key") {
    val ev = events(2000, 120)
    val df = Executor.baseline(ev, ex1, AggSpec.Count)
    val dup = df.groupBy("w_r", "w_s", "k", "wstart").count().filter(col("count") > 1)
    assert(dup.isEmpty, "duplicate output rows")
  }

  test("COUNT totals are conserved across a partitioned hierarchy") {
    val ev = events(2000, 120)
    val plan = CostModel.minCostPlan(Seq(Window.tumbling(10), Window.tumbling(120)),
      Semantics.PartitionedBy, 1)
    val rew = Executor.rewritten(ev, plan, AggSpec.Count)
    val total = rew.filter(col("w_r") === 120 && col("wstart") === 0)
      .agg(sum("value")).collect()(0).getDouble(0)
    val expected = ev.filter(col("t") < 120).count().toDouble
    assert(total == expected)
  }

  test("events before any complete window still land in instance 0") {
    import spark.implicits._
    val ev = Seq((0L, 1L, 5.0), (1L, 1L, 3.0)).toDF("t", "k", "v")
    val df = Executor.baseline(ev, Seq(Window(10, 2)), AggSpec.Min)
    val row0 = df.filter($"wstart" === 0).collect()
    assert(row0.length == 1 && row0(0).getAs[Double]("value") == 3.0)
  }

  // ---- nulls ----------------------------------------------------------------

  /** Events (t=1, v=5.0), (t=2, v), (t=null, v=3.0), the second with key
    * `k` and the others with key 1.
    */
  private def nullRows(k: java.lang.Long, v: java.lang.Double): DataFrame = {
    import spark.implicits._
    Seq[(java.lang.Long, java.lang.Long, java.lang.Double)](
      (1L, 1L, 5.0), (2L, k, v), (null, 1L, 3.0)).toDF("t", "k", "v")
  }

  private val nullPlan = CostModel.minCostPlan(
    Seq(Window(10, 10), Window(20, 20)), Semantics.CoveredBy, 1)

  /** The `IllegalArgumentException` in the causes of what `body` threw. */
  private def illegalArgument(body: => Any): IllegalArgumentException = {
    val thrown = intercept[Exception](body)
    Iterator.iterate[Throwable](thrown)(_.getCause).takeWhile(_ != null)
      .collectFirst { case e: IllegalArgumentException => e }
      .getOrElse(fail(s"no IllegalArgumentException in the causes of $thrown"))
  }

  test("rewritten drops an event with a null t, as the baseline does") {
    // Read as t = 0, the last event would lower both minima to 3.0.
    val ev = nullRows(1L, 4.0)
    val rew = Executor.rewritten(ev, nullPlan, AggSpec.Min).collect().toSeq
    assertSameRows(Executor.baseline(ev, nullPlan.userWindows, AggSpec.Min).collect().toSeq,
      rew, "null t")
    assert(rew.map(r => (r.getLong(0), r.getDouble(4))).toSet == Set((10L, 4.0), (20L, 4.0)))
  }

  test("rewritten fails an event with a null v or k, naming the column") {
    val nullV = illegalArgument(Executor.rewritten(nullRows(1L, null), nullPlan, AggSpec.Min).collect())
    assert(nullV.getMessage.contains("null v"), nullV.getMessage)
    val nullK = illegalArgument(Executor.rewritten(nullRows(null, 2.0), nullPlan, AggSpec.Min).collect())
    assert(nullK.getMessage.contains("null k"), nullK.getMessage)
  }
}
