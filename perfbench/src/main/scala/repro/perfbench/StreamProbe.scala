package repro.perfbench

import java.sql.Timestamp
import org.apache.spark.sql.{SQLContext, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.streaming.{StreamingQuery, StreamingQueryProgress}
import repro.core._
import repro.exec.{AggSpec, Executor}
import repro.stream.StreamingRewrite
import scala.collection.mutable
import scala.util.Random

/** The streaming layer, measured in the traced run of batch-tumbling: the
  * Example-7 MIN windows through `StreamingRewrite.chains` on a
  * `MemoryStream`, as BL (every window from the source) and WCG-FW
  * (Algorithm 2, factor W(10,10)), each plan with its own source and
  * queries. A closed loop: each plan gets the same fixed-size micro-batch,
  * and the next one only after all of its queries have processed the last.
  * Event time advances by `Span` seconds per micro-batch; a share of the
  * events arrive out of order, late but within the watermark delay.
  *
  * It feeds per-layer metrics only, over a fixed number of micro-batches:
  * micro-batch time drifts as a run goes on (state and log files grow), so
  * a median over a time budget depends on how many batches fit in it.
  */
object StreamProbe {
  val Windows: Seq[Window] = Seq(20L, 30L, 40L).map(Window.tumbling)
  val Agg: AggSpec = AggSpec.Min
  val Plans: Seq[String] = BatchWorkload.Timed
  val Keys = 4
  /** Seconds of event time per micro-batch. */
  val Span = 40L
  val WatermarkDelay = "10 seconds"
  /** Late events go back at most this many seconds, under the delay. */
  val MaxLateness = 5
  val LateShare = 0.1
  /** Untimed micro-batches per plan before the timed ones. */
  val WarmupBatches = 2
  /** Timed micro-batches per plan. */
  val TimedBatches = 6
  val SentinelBatches = 2

  type Event = (Long, Long, Double)

  /** Micro-batch `i`: `n` events on `[i·Span, (i+1)·Span)`, some moved
    * back behind the start of the batch. Deterministic in (seed, i).
    */
  def batch(seed: Long, i: Int, n: Int): Seq[Event] = {
    val rnd = new Random(seed * 1000003L + i)
    Seq.fill(n) {
      val late = i > 0 && rnd.nextDouble() < LateShare
      val t = if (late) i * Span - 1 - rnd.nextInt(MaxLateness) else i * Span + rnd.nextInt(Span.toInt)
      (t, 1L + rnd.nextInt(Keys), math.round(rnd.nextDouble() * 100000) / 1000.0)
    }
  }

  def measure(ctx: Ctx): Unit = new StreamRun(ctx).measure()
}

/** The queries of one plan, fed by their own source. */
private final class PlanStreams(input: MemoryStream[(Timestamp, Long, Double)],
                                val queries: Map[Window, StreamingQuery], val names: Map[Window, String]) {
  def push(events: Seq[StreamProbe.Event]): Unit =
    input.addData(events.map { case (t, k, v) => (new Timestamp(t * 1000L), k, v) })

  def awaitAll(): Unit = queries.values.foreach(_.processAllAvailable())
}

private final class StreamRun(ctx: Ctx) {
  import StreamProbe._

  private val tracer = ctx.tracer
  private val perBatch = if (ctx.settings.tiny) 400 else 5000
  private val eta = BigInt(perBatch / Span)
  private val pushed = mutable.ArrayBuffer.empty[Event]
  private var nextBatch = 0
  private var streams = Map.empty[String, PlanStreams]
  /** Wall seconds per plan of the timed micro-batches. */
  private val walls = Plans.map(_ -> mutable.ArrayBuffer.empty[Double]).toMap
  /** (plan, micro-batch index) of every timed operation that did not throw. */
  private val timedOps = mutable.ArrayBuffer.empty[(String, Int)]

  private def start(spark: SparkSession, name: String, plan: WcgPlan): PlanStreams = {
    import spark.implicits._
    implicit val sqlCtx: SQLContext = spark.sqlContext
    val input = MemoryStream[(Timestamp, Long, Double)]
    val sinks = tracer.span("stream.chains")(
      StreamingRewrite.chains(input.toDF().toDF("ts", "k", "v"), plan, Agg, WatermarkDelay))
    val names = sinks.keys.map(w => w -> s"perfbench_${name}_w${w.r}").toMap
    val queries = sinks.map { case (w, df) =>
      w -> df.writeStream.format("memory").queryName(names(w)).outputMode("append").start()
    }
    new PlanStreams(input, queries, names)
  }

  /** Push the next micro-batch to each plan in `order`; the wall time of each. */
  private def step(order: Seq[String]): Seq[(String, Either[Throwable, Double])] = {
    val events = tracer.span("gen.batch")(batch(ctx.settings.seed, nextBatch, perBatch))
    pushed ++= events
    val out = order.map { p =>
      val s = streams(p)
      p -> scala.util.Try(Timing.seconds {
        tracer.span("stream.addData")(s.push(events))
        tracer.span("stream.processAllAvailable")(s.awaitAll())
      }._2).toEither
    }
    nextBatch += 1
    out
  }

  /** Close every window with sentinel micro-batches far past the data,
    * then compare every closed window of every plan with the batch BL
    * result over the same events. Returns the micro-batches whose windows
    * were wrong, per plan: a window counts against the batch in which its
    * end time falls.
    */
  private def verify(firstTimed: Int): Set[(String, Int)] = {
    val spark = ctx.spark
    import spark.implicits._
    val dataEnd = nextBatch * Span
    val sentinelStart = dataEnd + 10 * Span
    (0 until SentinelBatches).foreach { j =>
      val ev = Seq((sentinelStart + j * 100 * Span, 1L, 0.0))
      streams.values.foreach { s => s.push(ev); s.awaitAll() }
    }
    val reference = BatchWorkload.keyed(
      Executor.baseline(pushed.toSeq.toDF("t", "k", "v"), Windows, Agg).collect())
    val lastTimed = nextBatch - 1
    def batchOf(key: (Long, Long, Long, Long)): Int =
      math.min(math.max(((key._4 + key._1 - 1) / Span).toInt, firstTimed), lastTimed)
    var corrupt = ctx.settings.corrupt
    Plans.flatMap { p =>
      val s = streams(p)
      var got: BatchWorkload.Keyed = s.names.values.toSeq.map { name =>
        BatchWorkload.keyed(spark.table(name).filter(col("wstart") < dataEnd).collect())
      }.reduce(_ ++ _)
      if (corrupt && p == "wcgfw" && got.nonEmpty) {
        corrupt = false
        val k = got.keys.maxBy(_._4)
        got = got.updated(k, got(k) + 1.0)
      }
      val wrong = (got.keySet ++ reference.keySet).filter(k => got.get(k) != reference.get(k))
      wrong.map(k => (p, batchOf(k)))
    }.toSet
  }

  def measure(): Unit = {
    ctx.freshSpark()
    // One state partition per stateful operator: each plan runs one query
    // per window, concurrently, so the queries still fill the cores, and
    // per-partition task and state-store commit costs stay a small share of
    // a micro-batch on this input size.
    ctx.spark.conf.set("spark.sql.shuffle.partitions", "1")
    val plans = Map(
      "bl" -> BatchWorkload.baselinePlan(Windows, Agg.semantics, eta),
      "wcgfw" -> FactorWindows.minCostPlanWithFactors(Windows, Agg.semantics, eta))
    streams = plans.map { case (name, plan) => name -> start(ctx.spark, name, plan) }
    try {
      (0 until WarmupBatches).foreach(i => step(Timing.rotate(Plans, i)).foreach(_._2.left.foreach(throw _)))
      val firstTimed = nextBatch
      val progressBefore = streams("wcgfw").queries.map { case (w, q) =>
        w -> Option(q.lastProgress).map(_.batchId).getOrElse(-1L) }
      (0 until TimedBatches).foreach { round =>
        val index = nextBatch
        step(Timing.rotate(Plans, round)).foreach { case (p, r) =>
          r.fold(
            e => ctx.outcomes.fail(s"$p micro-batch threw ${e.getClass.getSimpleName}: ${e.getMessage}"),
            { wall => walls(p) += wall; timedOps += ((p, index)) })
        }
      }
      val timedEvents = (nextBatch - firstTimed).toLong * perBatch
      val progress = streams("wcgfw").queries.toSeq.flatMap { case (w, q) =>
        q.recentProgress.filter(_.batchId > progressBefore(w)).toSeq }
      val lastProgress = streams("wcgfw").queries.values.flatMap(q => Option(q.lastProgress)).toSeq
      val wrong = verify(firstTimed)
      timedOps.foreach { op =>
        ctx.outcomes.record(if (wrong.contains(op)) Some(s"stream ${op._1}: wrong closed windows") else None)
      }

      val pl = ctx.perLayer
      val fwWalls = walls("wcgfw").toSeq
      val batches = fwWalls.size.toDouble
      def ops(p: StreamingQueryProgress) = p.stateOperators.toSeq
      def dur(key: String) =
        progress.map(p => Option(p.durationMs.get(key)).map(_.longValue).getOrElse(0L)).sum / batches
      Plans.foreach(p => pl.put(s"stream.query_s.$p", Stats.median(walls(p).toSeq), "s"))
      pl.put("stream.queries", streams("wcgfw").queries.size, "count")
      pl.put("stream.source_reads", progress.map(_.numInputRows).sum.toDouble / timedEvents, "ratio")
      pl.put("stream.state_ops", lastProgress.map(ops(_).size).sum, "count")
      pl.put("stream.state_rows_total", lastProgress.flatMap(ops).map(_.numRowsTotal).sum.toDouble, "count")
      pl.put("stream.state_rows_updated", progress.flatMap(ops).map(_.numRowsUpdated).sum / batches, "count")
      pl.put("stream.state_mem_mb", lastProgress.flatMap(ops).map(_.memoryUsedBytes).sum / 1e6, "MB")
      pl.put("stream.rows_dropped_by_watermark",
        progress.flatMap(ops).map(_.numRowsDroppedByWatermark).sum.toDouble, "count")
      Seq("addBatch", "walCommit", "triggerExecution").foreach(k => pl.put(s"stream.op_ms.$k", dur(k), "ms"))
      pl.put("stream.events_per_s", timedEvents / fwWalls.sum, "1/s")
    } finally streams.values.foreach(_.queries.values.foreach(_.stop()))
  }
}
