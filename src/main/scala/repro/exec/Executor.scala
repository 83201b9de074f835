package repro.exec

import org.apache.spark.HashPartitioner
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.{Window, WcgPlan}

/** Executes a multi-window aggregate query over an event DataFrame, either
  * as the *baseline* plan (every window computed independently from the raw
  * stream — Figure 1(b)) or as the *rewritten* hierarchical plan along a
  * min-cost WCG (Figure 2), where downstream windows consume the
  * sub-aggregates emitted by their upstream window.
  *
  * This is the query-rewriting layer of §3.3, built from public Spark
  * operators only, so no engine change is involved, as the paper claims.
  * The baseline is explode-based instance assignment + groupBy/agg per
  * window. The rewritten plan runs the whole forest as one Spark job: each
  * input partition merges its events into per-key panes, one shuffle on `k`
  * brings a key's panes together, and `ForestEval` sweeps the forest there
  * one key at a time, where each node's sub-aggregates fan out to all its
  * children: the `Multicast` operator.
  *
  * Input: events with integer event time `t` (in abstract time units ≥ 0),
  * grouping key `k` (the `DeviceID` of Figure 1) and value `v`. Both plans
  * drop an event whose `t` is null; the rewritten plan needs `k` and `v`
  * non-null, `k` and `t` integral and `v` numeric. In the baseline, MIN,
  * MAX, SUM and AVG ignore an event whose `v` is null (an instance whose
  * every `v` is null gets a null value), and COUNT counts every event, like
  * SQL's `COUNT(*)`.
  *
  * The rewritten plan reads the events through their own physical plan,
  * `events.queryExecution.toRdd`, which Spark plans once per DataFrame and
  * keeps, as it does for `Dataset.rdd`. Two limits follow. Events persisted
  * before their plan was first built are read through the cache; a
  * DataFrame planned before it was persisted keeps reading its source,
  * exactly like `Dataset.rdd`. And a wide input is read whole, every column
  * of every row, so a caller that reuses a narrow `(k, t, v)` DataFrame
  * gets the cheapest read.
  *
  * Output schema: `(w_r, w_s, k, wstart, value)` — one row per window per
  * key per instance that saw at least one event.
  */
object Executor {

  /** Sub-aggregate states of `w` computed directly from events:
    * `(k, wstart, st)`.
    */
  def subAggFromEvents(events: DataFrame, w: Window, agg: AggSpec): DataFrame =
    events
      .select(
        col("k"),
        explode(WindowAssign.instanceStartsForEvent(col("t"), w)).as("wstart"),
        agg.lift(col("v")).as("st0"))
      .groupBy(col("k"), col("wstart"))
      .agg(agg.merge(col("st0")).as("st"))

  /** Sub-aggregate states of `w` computed from the sub-aggregates of its
    * upstream window `upW` (the covering-set reduction of Observation 1):
    * each upstream interval `[u, u + upW.r)` feeds every instance of `w`
    * whose interval contains it.
    */
  def subAggFromUpstream(up: DataFrame, upW: Window, w: Window,
                         agg: AggSpec): DataFrame =
    up
      .select(
        col("k"),
        explode(WindowAssign.instanceStarts(col("wstart"), col("wstart") + upW.r, w))
          .as("wstart2"),
        col("st"))
      .groupBy(col("k"), col("wstart2").as("wstart"))
      .agg(agg.merge(col("st")).as("st"))

  /** The one output schema of every plan, `(w_r, w_s, k, wstart, value)`:
    * the window's range and slide, the key and the instance start as
    * bigint, and the finished value as double. `finish` casts to it, and
    * `rewritten` makes its rows, outside Catalyst, in it; so `baseline`,
    * `rewritten` and `StreamingRewrite.chains` return the same column names
    * and types whatever the integral type of the input's `k`.
    */
  private val outputSchema = StructType(
    Seq("w_r", "w_s", "k", "wstart").map(StructField(_, LongType, nullable = false)) :+
      StructField("value", DoubleType, nullable = false))

  /** Finalize a sub-aggregate DataFrame of `w` — states `st` per key `k`
    * and instance start `wstart` — into `outputSchema`'s names and types.
    * Only a frame whose columns differ (an int `k`, say) is cast: a cast
    * to the same type would leave its alias in the first branch of the
    * baseline's optimized union.
    */
  def finish(df: DataFrame, w: Window, agg: AggSpec): DataFrame = {
    val out = df.select(lit(w.r).as("w_r"), lit(w.s).as("w_s"), col("k"), col("wstart"),
      agg.finish(col("st")).cast("double").as("value"))
    def namesAndTypes(schema: StructType) = schema.map(f => f.name -> f.dataType)
    if (namesAndTypes(out.schema) == namesAndTypes(outputSchema)) out
    else out.select(outputSchema.map(f => col(f.name).cast(f.dataType).as(f.name)): _*)
  }

  /** Baseline plan: every distinct window aggregated independently from the
    * raw events, results unioned (left side of Figure 2(a)). A repeated
    * window is computed once, as in every rewritten plan.
    */
  def baseline(events: DataFrame, windows: Seq[Window], agg: AggSpec): DataFrame = {
    require(windows.nonEmpty, "empty window set")
    windows.distinct
      .map(w => finish(subAggFromEvents(events, w, agg), w, agg))
      .reduce(_.unionAll(_))
  }

  /** Rewritten plan: the whole min-cost WCG forest run per key as one
    * Spark job over one shuffle on `k` (right side of Figure 2(a)).
    *
    *  - Map side: the events' internal rows, `events.queryExecution.toRdd`,
    *    which Spark plans once per DataFrame, are read field by field at
    *    the ordinals of `k`, `t` and `v` resolved on the driver from
    *    `events.schema`, as long, long and double, into a
    *    `ForestEval.PaneBuilder`. It merges each input partition's events
    *    per key into panes of length `ForestEval.paneLength(plan)`, the gcd
    *    of the roots' ranges and slides, in primitive arrays, allocating
    *    nothing per event. It ships one record per key: that key's panes as
    *    primitive arrays sorted by start.
    *  - Shuffle: one `HashPartitioner` on `k`, into the session's
    *    `spark.sql.shuffle.partitions` partitions, but no more than the
    *    default parallelism: an RDD shuffle gets no adaptive coalescing,
    *    so more partitions would only add empty or tiny reduce tasks.
    *  - Reduce side: `ForestEval.fromPanes` merges every pane received
    *    through a second `PaneBuilder`, the map side's merger, into one
    *    sorted run per key. Then, one key at a time, it sweeps every node
    *    over its sorted input spans in `plan.levels` order: the panes for a
    *    root, its parent's instances for any other node, the `Multicast` of
    *    §3.3. The key's user-window rows come out in `outputSchema` before
    *    the next key is swept.
    *
    * A collect is one job of two stages whatever the forest's depth, and
    * the shuffle carries at most one record per (input partition, key).
    * Every WCG node is aggregated exactly once; factor windows participate
    * but are not exposed. A reduce task holds, without spilling, the merged
    * panes of its partition plus the instances of one key's forest.
    *
    * Types: `k` and `t` must be integral (byte, short, int or long) and `v`
    * numeric (integral, float, double or decimal). Each name is resolved
    * with the session's case sensitivity, as `select` resolves it. A
    * missing or ambiguous column, or one of another type, is refused here,
    * before any job runs, with an `IllegalArgumentException` naming the
    * column and its type.
    *
    * Nulls: an event with a null `t` is dropped, as `baseline` drops it.
    * A null `k` or `v` fails the job: the action throws with, as its cause,
    * an `IllegalArgumentException` naming the column.
    */
  def rewritten(events: DataFrame, plan: WcgPlan, agg: AggSpec): DataFrame = {
    require(plan.userWindows.nonEmpty, "empty window set")
    require(plan.semantics == agg.semantics,
      s"plan built for ${plan.semantics} but ${agg.name} needs ${agg.semantics}")
    val spark = events.sparkSession
    val g = ForestEval.paneLength(plan)
    val (k, t, v) = (field(events, "k", integral = true), field(events, "t", integral = true),
      field(events, "v", integral = false))
    val rows = events.queryExecution.toRdd
      .mapPartitions { in =>
        val panes = new ForestEval.PaneBuilder(g, agg)
        in.foreach(row => if (!t.isNull(row)) addEvent(panes, row, k, t, v))
        panes.result()
      }
      .partitionBy(new HashPartitioner(math.min(spark.conf.get("spark.sql.shuffle.partitions").toInt,
        spark.sparkContext.defaultParallelism)))
      .mapPartitions(ForestEval.fromPanes(plan, agg, _).emit((r, s, k, a, v) => Row(r, s, k, a, v)))
    spark.createDataFrame(rows, outputSchema)
  }

  /** Adds the event in `row`, whose `t` is not null, to `panes`, each field
    * read before the (reused) row advances.
    */
  private def addEvent(panes: ForestEval.PaneBuilder, row: InternalRow,
                       k: Field, t: Field, v: Field): Unit = {
    if (k.isNull(row)) throw nullIn("k", t.long(row))
    if (v.isNull(row)) throw nullIn("v", t.long(row))
    panes.add(k.long(row), t.long(row), v.double(row))
  }

  private def nullIn(column: String, t: Long): IllegalArgumentException =
    new IllegalArgumentException(s"rewritten plan: the event at t=$t has a null $column")

  /** Column `ordinal`, of type `dataType`, of the events' internal rows. */
  private final case class Field(ordinal: Int, dataType: DataType) {
    def isNull(row: InternalRow): Boolean = row.isNullAt(ordinal)

    /** The field of `row`, non-null and integral, as a long. */
    def long(row: InternalRow): Long = dataType match {
      case LongType => row.getLong(ordinal)
      case IntegerType => row.getInt(ordinal)
      case ShortType => row.getShort(ordinal)
      case ByteType => row.getByte(ordinal)
    }

    /** The field of `row`, non-null and numeric, as a double. */
    def double(row: InternalRow): Double = dataType match {
      case DoubleType => row.getDouble(ordinal)
      case FloatType => row.getFloat(ordinal)
      case d: DecimalType => row.getDecimal(ordinal, d.precision, d.scale).toDouble
      case _ => long(row)
    }
  }

  /** Column `name` of `events`, resolved with the session's case
    * sensitivity as `select` resolves it. It must be integral or, when
    * `integral` is false, numeric.
    */
  private def field(events: DataFrame, name: String, integral: Boolean): Field = {
    val resolver = events.queryExecution.sparkSession.sessionState.conf.resolver
    val schema = events.schema
    val found = schema.fieldNames.indices.filter(i => resolver(schema(i).name, name))
    require(found.size == 1, s"rewritten plan: ${if (found.isEmpty) "no" else "an ambiguous"} " +
      s"column $name in ${schema.simpleString}")
    val dataType = schema(found.head).dataType
    val accepted = dataType match {
      case ByteType | ShortType | IntegerType | LongType => true
      case FloatType | DoubleType | _: DecimalType => !integral
      case _ => false
    }
    require(accepted, s"rewritten plan: column $name has type ${dataType.simpleString}, " +
      (if (integral) "not byte, short, int or long" else "not numeric"))
    Field(found.head, dataType)
  }
}
