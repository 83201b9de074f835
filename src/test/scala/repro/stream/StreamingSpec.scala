package repro.stream

import java.sql.Timestamp
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions._
import repro.{SparkSpec, SynthData}
import repro.core._
import repro.exec.{AggSpec, Executor}

/** Structured Streaming integration: the rewritten (chained time-window)
  * query over a MemoryStream must produce, for every closed window, exactly
  * what the batch executor computes — i.e. the rewriting is sound under
  * real streaming execution with watermarks, not just in batch: in one
  * micro-batch, and over several with events arriving out of order.
  */
class StreamingSpec extends SparkSpec {
  import spark.implicits._

  private val horizon = 120L

  /** Deterministic event list mirroring SynthData.events. */
  private def eventList(n: Int, seed: Long): Seq[(Long, Long, Double)] = {
    val rnd = new scala.util.Random(seed)
    Seq.fill(n)((rnd.nextLong(horizon), 1L + rnd.nextLong(3), rnd.nextDouble() * 100))
  }

  /** `events` cut, in order, into `batches` micro-batches of about equal
    * size.
    */
  private def microBatches(events: Seq[(Long, Long, Double)], batches: Int): Seq[Seq[(Long, Long, Double)]] =
    events.grouped((events.size + batches - 1) / batches).toSeq

  /** `events` in time order, as they arrive in `batches` micro-batches,
    * with about 10 % of each later batch's events moved to 1–5 s before
    * that batch's first event: behind events already seen, but ahead of a
    * 10-second watermark delay.
    */
  private def arrivingLate(events: Seq[(Long, Long, Double)], batches: Int,
                           seed: Long): Seq[(Long, Long, Double)] = {
    val rnd = new scala.util.Random(seed)
    microBatches(events.sortBy(_._1), batches).zipWithIndex.flatMap {
      case (batch, 0) => batch
      case (batch, _) =>
        val start = batch.head._1
        batch.map { case e @ (_, k, v) => if (rnd.nextInt(10) == 0) (start - 1 - rnd.nextInt(5), k, v) else e }
    }
  }

  /** Runs the `chains` of `windows` over `events`, fed in `batches`
    * micro-batches in the given order under `watermarkDelay`. The queries
    * share one `MemoryStream`, which drops a batch's data for every reader
    * once any query commits it, and a query commits batch N when it starts
    * batch N+1. No-data micro-batches are off, so a query starts N+1 only
    * on the next `addData`, after every query has run N; with them on, a
    * query's no-data batch after a watermark move could drop N while
    * another query has yet to read it.
    */
  private def runStreaming(windows: Seq[Window], agg: AggSpec,
                           events: Seq[(Long, Long, Double)],
                           withFactors: Boolean, batches: Int,
                           watermarkDelay: String): Map[Window, Seq[(Long, Long, Double)]] = {
    val plan =
      if (withFactors) FactorWindows.minCostPlanWithFactors(windows, agg.semantics, 100)
      else CostModel.minCostPlan(windows, agg.semantics, 100)
    val settings = Seq("spark.sql.shuffle.partitions" -> "3",
      "spark.sql.streaming.noDataMicroBatches.enabled" -> "false")
    val previous = settings.map { case (key, _) => key -> spark.conf.getOption(key) }
    settings.foreach { case (key, value) => spark.conf.set(key, value) }
    try {
      implicit val sqlCtx = spark.sqlContext
      val input = MemoryStream[(Timestamp, Long, Double)]
      val streamDf = input.toDF().toDF("ts", "k", "v")
      val sinks = StreamingRewrite.chains(streamDf, plan, agg, watermarkDelay)
      val queries = sinks.toSeq.zipWithIndex.map { case ((w, df), i) =>
        val name = s"repro_stream_${w.r}_${i}_$batches"
        w -> ((name, df.writeStream.format("memory").queryName(name)
          .outputMode("append").start()))
      }.toMap
      try {
        microBatches(events, batches).foreach { batch =>
          input.addData(batch.map { case (t, k, v) => (new Timestamp(t * 1000L), k, v) })
          queries.values.foreach(_._2.processAllAvailable())
        }
        // Sentinel batches far past the data: the first moves the watermark
        // past every real window, and each later one lets one more forest
        // level evict in append mode, one per level.
        Seq.tabulate(plan.levels.size + 1)(i => 5000L + 1000L * i).foreach { t =>
          input.addData(Seq((new Timestamp(t * 1000L), 1L, 0.0)))
          queries.values.foreach(_._2.processAllAvailable())
        }
        queries.map { case (w, (name, _)) =>
          w -> spark.table(name)
            .filter(col("wstart") < horizon * 2) // drop sentinel windows
            .select("k", "wstart", "value")
            .collect()
            .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
            .toSeq.sorted
        }
      } finally queries.values.foreach(_._2.stop())
    } finally previous.foreach {
      case (key, Some(value)) => spark.conf.set(key, value)
      case (key, None)        => spark.conf.unset(key)
    }
  }

  private def batchExpected(windows: Seq[Window], agg: AggSpec,
                            events: Seq[(Long, Long, Double)]): Map[Window, Seq[(Long, Long, Double)]] = {
    val ev = events.toDF("t", "k", "v")
    windows.map { w =>
      w -> Executor.finish(Executor.subAggFromEvents(ev, w, agg), w, agg)
        .select("k", "wstart", "value")
        .collect()
        .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
        .toSeq.sorted
    }.toMap
  }

  private def check(windows: Seq[Window], agg: AggSpec, withFactors: Boolean,
                    seed: Long, batches: Int = 1): Unit = {
    val events =
      if (batches == 1) eventList(400, seed) else arrivingLate(eventList(400, seed), batches, seed)
    val delay = if (batches == 1) "0 seconds" else "10 seconds"
    val got = runStreaming(windows, agg, events, withFactors, batches, delay)
    val want = batchExpected(windows, agg, events)
    windows.foreach { w =>
      val (g, e) = (got(w), want(w))
      assert(g.map(t => (t._1, t._2)) == e.map(t => (t._1, t._2)),
        s"$w (${agg.name}): instance sets differ: got=${g.take(3)} want=${e.take(3)}")
      g.zip(e).foreach { case ((_, _, gv), (_, _, ev2)) =>
        assert(math.abs(gv - ev2) <= 1e-6 * math.max(1.0, math.abs(ev2)),
          s"$w (${agg.name}): value mismatch")
      }
    }
  }

  test("streaming chained MIN over Example-1 windows equals batch") {
    check(Seq(10L, 20L, 40L).map(Window.tumbling), AggSpec.Min,
      withFactors = false, seed = 1)
  }

  test("streaming chained SUM with a factor window equals batch") {
    // {20,40} induces no factor; {20,30,40} re-introduces W(10,10).
    check(Seq(20L, 30L, 40L).map(Window.tumbling), AggSpec.Sum,
      withFactors = true, seed = 2)
  }

  test("streaming chained MIN over Example-1 windows equals batch over 3 micro-batches with late events") {
    check(Seq(10L, 20L, 40L).map(Window.tumbling), AggSpec.Min,
      withFactors = false, seed = 1, batches = 3)
  }

  test("streaming chained SUM with a factor window equals batch over 3 micro-batches with late events") {
    check(Seq(20L, 30L, 40L).map(Window.tumbling), AggSpec.Sum,
      withFactors = true, seed = 2, batches = 3)
  }

  test("chains over an int k have the rewritten plan's column names and types") {
    implicit val sqlCtx = spark.sqlContext
    val stream = MemoryStream[(Timestamp, Int, Double)].toDF().toDF("ts", "k", "v")
    val ws = Seq(10L, 20L).map(Window.tumbling)
    val plan = CostModel.minCostPlan(ws, Semantics.CoveredBy, 100)
    val rewritten = Executor.rewritten(Seq((1L, 1, 2.0)).toDF("t", "k", "v"), plan, AggSpec.Min)
    def types(df: org.apache.spark.sql.DataFrame) = df.schema.map(f => f.name -> f.dataType)
    val chains = StreamingRewrite.chains(stream, plan, AggSpec.Min)
    assert(chains.keySet == ws.toSet)
    chains.values.foreach(df => assert(types(df) == types(rewritten)))
  }

  test("streaming chained AVG (algebraic state) equals batch") {
    check(Seq(10L, 30L).map(Window.tumbling), AggSpec.Avg,
      withFactors = false, seed = 3)
  }

  test("streaming chained COUNT equals batch") {
    check(Seq(15L, 60L).map(Window.tumbling), AggSpec.Count,
      withFactors = false, seed = 4)
  }

  test("streaming rewrite rejects non-tumbling plans") {
    val plan = CostModel.minCostPlan(Seq(Window(10, 2)), Semantics.CoveredBy, 1)
    val ev = SynthData.events(spark, 10, 10)
      .select(col("t").cast("timestamp").as("ts"), col("k"), col("v"))
    assertThrows[IllegalArgumentException](
      StreamingRewrite.chains(ev, plan, AggSpec.Min))
  }
}
