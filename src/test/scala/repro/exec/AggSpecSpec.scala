package repro.exec

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.Semantics

class AggSpecSpec extends SparkSpec {
  import spark.implicits._

  test("semantics follow footnote 5: MIN/MAX covered-by, SUM/COUNT/AVG partitioned-by") {
    assert(AggSpec.Min.semantics == Semantics.CoveredBy)
    assert(AggSpec.Max.semantics == Semantics.CoveredBy)
    assert(AggSpec.Sum.semantics == Semantics.PartitionedBy)
    assert(AggSpec.Count.semantics == Semantics.PartitionedBy)
    assert(AggSpec.Avg.semantics == Semantics.PartitionedBy)
  }

  private val values = Seq(3.0, 1.0, 4.0, 1.5, 9.0, 2.5)
  private def df = values.map(v => ("a", v)).toDF("k", "v")

  /** lift → merge → finish over one group must equal the plain aggregate. */
  private def endToEnd(agg: AggSpec): Double =
    df.select(col("k"), agg.lift(col("v")).as("st0"))
      .groupBy("k").agg(agg.merge(col("st0")).as("st"))
      .select(agg.finish(col("st")).cast("double").as("out"))
      .collect()(0).getDouble(0)

  test("MIN state algebra computes the minimum")  { assert(endToEnd(AggSpec.Min) == 1.0) }
  test("MAX state algebra computes the maximum")  { assert(endToEnd(AggSpec.Max) == 9.0) }
  test("SUM state algebra computes the sum")      { assert(endToEnd(AggSpec.Sum) == values.sum) }
  test("COUNT state algebra computes the count")  { assert(endToEnd(AggSpec.Count) == values.size) }
  test("AVG state algebra computes the mean")     {
    assert(math.abs(endToEnd(AggSpec.Avg) - values.sum / values.size) < 1e-12)
  }

  test("two-level merge equals one-level merge (distributive/algebraic law)") {
    // Split into two groups, merge states, compare with the flat result —
    // the Theorem 5 mechanism the hierarchy depends on.
    AggSpec.all.foreach { agg =>
      val grouped = values.zipWithIndex.map { case (v, i) => (i % 2, v) }.toDF("g", "v")
      val partials = grouped
        .select(col("g"), agg.lift(col("v")).as("st0"))
        .groupBy("g").agg(agg.merge(col("st0")).as("st"))
      val twoLevel = partials
        .select(lit("all").as("k"), col("st"))
        .groupBy("k").agg(agg.merge(col("st")).as("st"))
        .select(agg.finish(col("st")).cast("double").as("out"))
        .collect()(0).getDouble(0)
      assert(math.abs(twoLevel - endToEnd(agg)) < 1e-9, agg.name)
    }
  }

  test("scalar form equals the column form, flat and two-level, on random values") {
    val rnd = new scala.util.Random(11)
    (1 to 5).foreach { round =>
      val vs = Seq.fill(2 + rnd.nextInt(40))(math.round(rnd.nextDouble() * 1e5) / 1e3)
      val cut = 1 + rnd.nextInt(vs.size - 1)
      val values = vs.toDF("v")
      AggSpec.all.foreach { agg =>
        // A state's value and count: `liftValue` and 1 per event, `g` and + per merge.
        def fold(xs: Seq[Double]): (Double, Long) = (xs.map(agg.liftValue).reduce(agg.g), xs.size.toLong)
        val flat = fold(vs) match { case (value, count) => agg.finish(value, count) }
        val ((v1, c1), (v2, c2)) = (fold(vs.take(cut)), fold(vs.drop(cut)))
        val twoLevel = agg.finish(agg.g(v1, v2), c1 + c2)
        val column = values
          .select(agg.lift(col("v")).as("st0"))
          .agg(agg.merge(col("st0")).as("st"))
          .select(agg.finish(col("st")).cast("double"))
          .collect()(0).getDouble(0)
        val tol = 1e-9 * math.max(1.0, math.abs(column))
        assert(math.abs(flat - column) <= tol, s"${agg.name} flat, round $round")
        assert(math.abs(twoLevel - column) <= tol, s"${agg.name} two-level, round $round")
      }
    }
  }

  test("MIN is tolerant of overlapping partitions (Theorem 6)") {
    // Duplicate a subset of values (as overlapping covers would) — the MIN
    // result must not change, unlike SUM/COUNT.
    val withDup = (values ++ values.take(3)).map(v => ("a", v)).toDF("k", "v")
    def run(agg: AggSpec, d: org.apache.spark.sql.DataFrame): Double =
      d.select(col("k"), agg.lift(col("v")).as("st0"))
        .groupBy("k").agg(agg.merge(col("st0")).as("st"))
        .select(agg.finish(col("st")).cast("double").as("out"))
        .collect()(0).getDouble(0)
    assert(run(AggSpec.Min, withDup) == 1.0)
    assert(run(AggSpec.Max, withDup) == 9.0)
    assert(run(AggSpec.Sum, withDup) != values.sum) // overlap breaks SUM
  }
}
