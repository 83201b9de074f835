package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.{GenerateExec, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.{ReusedExchangeExec, ShuffleExchangeExec}
import org.apache.spark.storage.RDDBlockId

/** Task totals of every job submitted under one tag. */
final class TaskTotals {
  val tasks = new AtomicLong
  val stages = new AtomicLong
  val runMs = new AtomicLong
  val cpuNs = new AtomicLong
  val gcMs = new AtomicLong
  val spillBytes = new AtomicLong
  val shuffleWriteBytes = new AtomicLong
}

/** A public `SparkListener` that sums task metrics per tag (a local
  * property set by the benchmark thread before it runs a query) and tracks
  * the storage memory held by cached RDD blocks, with its peak since the
  * last `resetPeak`.
  */
final class TaskProbe extends SparkListener {
  import TaskProbe.TagKey

  private val stageTag = new ConcurrentHashMap[Int, String]
  private val totals = new ConcurrentHashMap[String, TaskTotals]
  private val blockMem = new ConcurrentHashMap[RDDBlockId, java.lang.Long]
  private val memNow = new AtomicLong
  private val memPeak = new AtomicLong
  private val jobsStarted = new AtomicLong
  private val jobsEnded = new AtomicLong

  def of(tag: String): TaskTotals = totals.computeIfAbsent(tag, _ => new TaskTotals)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    jobsStarted.incrementAndGet()
    val tag = Option(e.properties).flatMap(p => Option(p.getProperty(TagKey)))
    tag.foreach(t => e.stageIds.foreach(stageTag.put(_, t)))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = jobsEnded.incrementAndGet()

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    Option(stageTag.get(e.stageInfo.stageId)).foreach(of(_).stages.incrementAndGet())

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    for (tag <- Option(stageTag.get(e.stageId)); m <- Option(e.taskMetrics)) {
      val t = of(tag)
      t.tasks.incrementAndGet()
      t.runMs.addAndGet(m.executorRunTime)
      t.cpuNs.addAndGet(m.executorCpuTime)
      t.gcMs.addAndGet(m.jvmGCTime)
      t.spillBytes.addAndGet(m.memoryBytesSpilled + m.diskBytesSpilled)
      t.shuffleWriteBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
    }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit =
    e.blockUpdatedInfo.blockId match {
      case id: RDDBlockId =>
        val now = e.blockUpdatedInfo.memSize
        val before = Option(blockMem.put(id, now)).map(_.longValue).getOrElse(0L)
        val total = memNow.addAndGet(now - before)
        memPeak.accumulateAndGet(total, math.max)
      case _ =>
    }

  def resetPeak(): Unit = memPeak.set(memNow.get)
  def peakStorageBytes: Long = memPeak.get

  /** Wait (at most `maxMs`) until every started job has been reported
    * ended, so the task totals read afterwards are complete.
    */
  def drain(maxMs: Long = 5000): Unit = {
    val deadline = System.currentTimeMillis() + maxMs
    var last = -1L
    while (System.currentTimeMillis() < deadline &&
      !(jobsStarted.get == jobsEnded.get && last == jobsEnded.get)) {
      last = jobsEnded.get
      Thread.sleep(100)
    }
  }
}

object TaskProbe {
  val TagKey = "repro.perfbench.tag"

  /** Run `body` with its Spark jobs attributed to `tag` (None: untagged). */
  def tagged[A](spark: SparkSession, tag: Option[String])(body: => A): A = {
    val sc = spark.sparkContext
    val before = sc.getLocalProperty(TagKey)
    sc.setLocalProperty(TagKey, tag.orNull)
    try body finally sc.setLocalProperty(TagKey, before)
  }
}

/** Reads the executed physical plan of a DataFrame after an action ran on
  * it: with adaptive execution on, this is the final adaptive plan.
  */
object PlanProbe extends AdaptiveSparkPlanHelper {
  def finalPlan(df: DataFrame): SparkPlan = stripAQEPlan(df.queryExecution.executedPlan)

  def shuffles(plan: SparkPlan): Int = collect(plan) { case e: ShuffleExchangeExec => e }.size

  def reusedExchanges(plan: SparkPlan): Int =
    collect(plan) { case e: ReusedExchangeExec => e }.size

  /** Rows produced by every explode (`GenerateExec`) of the plan: the rows
    * entering the window aggregations after instance assignment.
    */
  def explodedRows(plan: SparkPlan): Long =
    collect(plan) { case g: GenerateExec => g.metrics("numOutputRows").value }.sum
}
