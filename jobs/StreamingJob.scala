package repro.jobs

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core._
import repro.exec.AggSpec
import repro.stream.StreamingRewrite

/** Structured Streaming demonstration entrypoint: runs the rewritten
  * (chained time-window) queries of the Example-7 plan — including its
  * factor window W(10,10) — against Spark's `rate` source for a fixed wall
  * period. It prints the rewritten plan (`WcgPlan.render`), then the
  * emitted window aggregates per user window.
  */
object StreamingJob {
  def main(args: Array[String]): Unit = {
    val runSeconds = args.headOption.map(_.toInt).getOrElse(45)
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-streaming")
      .config("spark.sql.shuffle.partitions", "4")
      .getOrCreate()
    try {
      val windows = Seq(20L, 30L, 40L).map(Window.tumbling)
      val plan = FactorWindows.minCostPlanWithFactors(windows,
        AggSpec.Min.semantics, eta = 100)
      print(plan.render)

      val events = spark.readStream.format("rate")
        .option("rowsPerSecond", "500").load()
        .select(col("timestamp").as("ts"),
          (col("value") % 4 + 1).as("k"),
          (pmod(col("value") * 2654435761L, lit(10000)) / 100.0).as("v"))

      val sinks = StreamingRewrite.chains(events, plan, AggSpec.Min,
        watermarkDelay = "2 seconds")
      val queries = sinks.toSeq.map { case (w, df) =>
        val name = s"win_${w.r}"
        name -> df.writeStream.format("memory").queryName(name)
          .outputMode("append").start()
      }
      Thread.sleep(runSeconds * 1000L)
      queries.foreach { case (name, q) =>
        q.stop()
        println(s"== closed windows from $name ==")
        spark.table(name).orderBy("k", "wstart").show(20, truncate = false)
      }
    } finally spark.stop()
  }
}
