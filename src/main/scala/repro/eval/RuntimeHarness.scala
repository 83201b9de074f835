package repro.eval

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.core._
import repro.exec.{AggSpec, Executor}

/** Wall-clock supporting experiment: run the baseline plan and the
  * rewritten (WCG / WCG-FW) plans on a real event DataFrame and time them.
  * The paper's evaluation metric is the analytic cost; this harness shows
  * the rewriting also wins end-to-end in Spark, and asserts all plans
  * return identical results while doing so.
  */
object RuntimeHarness {

  final case class Timing(name: String, millis: Long, rows: Long, cost: BigInt)

  /** Execute one plan to completion and time it. */
  private def time(name: String, cost: BigInt)(body: => Long): Timing = {
    val t0 = System.nanoTime()
    val rows = body
    Timing(name, (System.nanoTime() - t0) / 1000000L, rows, cost)
  }

  /** Run BL vs WCG vs WCG-FW on `nEvents` events over `[0, horizon)` and
    * return a formatted table. Results of all plans are checked for
    * equality (same multiset of output rows).
    */
  def run(spark: SparkSession, title: String, windows: Seq[Window], agg: AggSpec,
          nEvents: Long, horizon: Long, nKeys: Long = 4): String = {
    val events = SynthData.events(spark, nEvents, horizon, nKeys).persist()
    events.count() // materialize input so generation cost is not measured

    val eta    = BigInt(math.max(1L, nEvents / horizon))
    val planA1 = CostModel.minCostPlan(windows, agg.semantics, eta)
    val planA2 = FactorWindows.minCostPlanWithFactors(windows, agg.semantics, eta)
    val blCost = CostModel.baselineCost(windows, eta)

    // Keyed rows: every column but the trailing value is the key; values
    // compare with a tolerance (hierarchical aggregation associates float
    // additions differently than the flat plan).
    def keyed(df: org.apache.spark.sql.DataFrame): Map[String, Double] =
      df.collect().map { r =>
        ((0 until r.length - 1).map(i => String.valueOf(r.get(i))).mkString("|"),
          r.getDouble(r.length - 1))
      }.toMap

    def assertSame(got: Map[String, Double], want: Map[String, Double], hint: String): Unit = {
      require(got.keySet == want.keySet, s"$hint: row sets differ for $title")
      got.foreach { case (k, v) =>
        require(math.abs(v - want(k)) <= 1e-6 * math.max(1.0, math.abs(v)),
          s"$hint: value mismatch at $k for $title")
      }
    }

    var blRows: Map[String, Double] = null
    // Only this harness's own input is unpersisted: the caller's caches stay.
    val timings = try Seq(
      time("BL", blCost) {
        blRows = keyed(Executor.baseline(events, windows, agg)); blRows.size.toLong
      },
      time("WCG", planA1.totalCost) {
        val got = keyed(Executor.rewritten(events, planA1, agg))
        assertSame(got, blRows, "WCG")
        got.size.toLong
      },
      time("WCG-FW", planA2.totalCost) {
        val got = keyed(Executor.rewritten(events, planA2, agg))
        assertSame(got, blRows, "WCG-FW")
        got.size.toLong
      },
    ) finally events.unpersist()

    val sb = new StringBuilder
    sb ++= s"== $title  (agg=${agg.name}, events=$nEvents, horizon=$horizon, eta≈$eta) ==\n"
    sb ++= s"   windows: ${windows.mkString(" ")}\n"
    sb ++= s"   WCG-FW factor windows: ${if (planA2.factorWindows.isEmpty) "(none)" else planA2.factorWindows.mkString(" ")}\n"
    sb ++= f"${"plan"}%-8s ${"model-cost"}%14s ${"wall-ms"}%10s ${"out-rows"}%10s\n"
    timings.foreach(t => sb ++= f"${t.name}%-8s ${t.cost}%14s ${t.millis}%10d ${t.rows}%10d\n")
    sb.result()
  }
}
