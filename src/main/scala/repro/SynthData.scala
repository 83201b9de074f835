package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic input of the window-aggregate queries: the event stream of
  * Figure 1. Deterministic in `seed`, so every plan, test and the DuckDB
  * oracle see identical input.
  */
object SynthData {
  /** `rows` events with integer event time `t` uniform in `[0, horizon)`
    * (steady rate η ≈ rows/horizon), device key `k` in `[1, nKeys]`, and a
    * double value `v` in `[0, 100)`; mirrors the temperature-by-device
    * stream of Figure 1.
    */
  def events(spark: SparkSession, rows: Long, horizon: Long, nKeys: Long = 4,
             seed: Long = 7): DataFrame =
    spark.range(rows).select(
      (rand(seed) * horizon).cast(LongType)        as "t",
      (rand(seed + 1) * nKeys + 1).cast(LongType)  as "k",
      round(rand(seed + 2) * 100, 3)               as "v",
    )
}
