package repro.perfbench

import java.io.File
import org.apache.spark.sql.SparkSession

/** Command-line settings of one benchmark run. `tiny` shrinks every input
  * for the self-test; `corrupt` deliberately damages one result so the
  * self-test can see it counted as a failed operation.
  */
final case class Settings(workload: String, seed: Long, seconds: Double, trace: Boolean,
                          tiny: Boolean, corrupt: Boolean, scratch: File)

/** Everything a workload needs while it runs. `say` prints a report line
  * ahead of the result line.
  */
final class Ctx(val settings: Settings, val tracer: Tracer, val say: String => Unit) {
  /** Spark's task slots: all cores but one, at most four. The core left
    * over runs the driver, the JIT and the garbage collector, which would
    * otherwise take turns with tasks and make timings noisier.
    */
  val cores: Int = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors - 1))
  /** End-to-end metrics, printed by an untraced run. */
  val endToEnd = new Metrics
  /** Per-layer metrics, printed by a traced run. */
  val perLayer = new Metrics
  val outcomes = new Outcomes
  private var session: Option[SparkSession] = None
  private var probe: Option[TaskProbe] = None

  /** Stop the current Spark session, if any, and start a fresh one on a
    * local master with `cores` task slots. In a traced run a `TaskProbe`
    * is registered on it. Shuffle and spill files stay in the run's scratch
    * directory, as do streaming checkpoints: they go to temporary
    * directories and the JVM's temporary directory is the scratch one.
    */
  def freshSpark(): SparkSession = {
    session.foreach(_.stop())
    val dir = settings.scratch.getAbsolutePath
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName(s"perfbench-${settings.workload}")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$dir/spark-local")
      .config("spark.sql.warehouse.dir", s"$dir/warehouse")
      .config("spark.sql.shuffle.partitions", cores.toLong)
      // One micro-batch per addData: a trailing no-data batch would run
      // while the next plan is being timed.
      .config("spark.sql.streaming.noDataMicroBatches.enabled", "false")
      .getOrCreate()
    probe = if (settings.trace) {
      val p = new TaskProbe
      spark.sparkContext.addSparkListener(p)
      Some(p)
    } else None
    session = Some(spark)
    spark
  }

  def taskProbe: Option[TaskProbe] = probe

  def spark: SparkSession =
    session.getOrElse(throw new IllegalStateException("no Spark session started"))

  def stopSpark(): Unit = { session.foreach(_.stop()); session = None }
}

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
  * prints report lines and, last, one JSON result line. `--selftest` runs
  * the self-test instead: every workload at tiny size, untraced, traced,
  * and each with a corrupted result, one `selftest <workload> <mode>
  * <result>` line per run.
  */
object Bench {
  val workloads: Map[String, Ctx => Unit] = Map(
    "batch-tumbling" -> (ctx => BatchWorkload.run(ctx, BatchWorkload.tumbling(ctx.settings.tiny))),
    "batch-hopping" -> (ctx => BatchWorkload.run(ctx, BatchWorkload.hopping(ctx.settings.tiny))),
  )

  def parse(args: Array[String]): Settings = {
    def value(flag: String): Option[String] = {
      val i = args.indexOf(flag)
      if (i >= 0 && i + 1 < args.length) Some(args(i + 1)) else None
    }
    def need(flag: String): String =
      value(flag).getOrElse(throw new IllegalArgumentException(s"missing $flag"))
    val workload = need("--workload")
    require(workloads.contains(workload),
      s"unknown workload $workload (known: ${workloads.keys.toSeq.sorted.mkString(", ")})")
    val trace = need("--trace")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    val seconds = need("--seconds").toDouble
    require(seconds > 0, "--seconds must be positive")
    Settings(workload, need("--seed").toLong, seconds, trace == "1", tiny = false, corrupt = false,
      scratch = new File(value("--scratch").getOrElse(sys.props("java.io.tmpdir"))))
  }

  /** Run one workload; its result line. */
  def runOne(settings: Settings): String = {
    val ctx = new Ctx(settings, new Tracer, line => println(line))
    try workloads(settings.workload)(ctx)
    finally ctx.stopSpark()
    if (ctx.outcomes.failedCount > 0)
      Console.err.println(s"failed operations: ${ctx.outcomes.summary}")
    val metrics = Catalog.complete(if (settings.trace) ctx.perLayer else ctx.endToEnd, settings.trace)
    Json.result(ctx.outcomes.attemptedCount, ctx.outcomes.failedCount, metrics)
  }

  def main(args: Array[String]): Unit =
    if (args.contains("--selftest")) {
      val i = args.indexOf("--scratch")
      val scratch = new File(if (i >= 0) args(i + 1) else sys.props("java.io.tmpdir"))
      for {
        w <- workloads.keys.toSeq.sorted
        (mode, trace, corrupt) <- Seq(("untraced", false, false), ("traced", true, false),
          ("corrupt", false, true), ("corrupt-traced", true, true))
      } {
        val result = runOne(Settings(w, seed = 1, seconds = 1.0, trace, tiny = true, corrupt, scratch))
        println(s"selftest $w $mode $result")
      }
    } else println(runOne(parse(args)))
}
