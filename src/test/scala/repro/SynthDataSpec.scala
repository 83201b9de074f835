package repro

import org.apache.spark.sql.functions._

class SynthDataSpec extends SparkSpec {

  test("events: deterministic in seed, right row count and schema") {
    val a = SynthData.events(spark, 1000, 120, 4, seed = 9)
    val b = SynthData.events(spark, 1000, 120, 4, seed = 9)
    assert(a.columns.toSeq == Seq("t", "k", "v"))
    assert(a.count() == 1000)
    assert(a.collect().toSeq == b.collect().toSeq)
  }

  test("events: times within [0, horizon), keys within [1, nKeys]") {
    val df = SynthData.events(spark, 5000, 200, 7)
    val row = df.agg(
      min("t").as("tmin"), max("t").as("tmax"),
      min("k").as("kmin"), max("k").as("kmax"),
      min("v").as("vmin"), max("v").as("vmax")).collect()(0)
    assert(row.getAs[Long]("tmin") >= 0 && row.getAs[Long]("tmax") < 200)
    assert(row.getAs[Long]("kmin") >= 1 && row.getAs[Long]("kmax") <= 7)
    assert(row.getAs[Double]("vmin") >= 0 && row.getAs[Double]("vmax") < 100)
  }

  test("events: roughly uniform arrival rate (eta ~ rows/horizon)") {
    val df = SynthData.events(spark, 60000, 60)
    val perUnit = df.groupBy("t").count().agg(avg("count")).collect()(0).getDouble(0)
    assert(math.abs(perUnit - 1000.0) < 50.0)
  }
}
