package repro.perfbench

import scala.collection.mutable

/** Order statistics over timing samples. */
object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile `q ∈ [0, 1]` of a non-empty sample. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  /** The highest of a few standard percentiles that has at least ten
    * samples above it, as `(percentile, value)`; the median when the sample
    * is too small for any of them.
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    val pct = Seq(99.9, 99.0, 95.0, 90.0, 75.0)
      .find(p => xs.size * (1 - p / 100) >= 10).getOrElse(50.0)
    (pct, quantile(xs, pct / 100))
  }

  def geomean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty && xs.forall(_ > 0), "geomean needs positive samples")
    math.exp(xs.map(math.log).sum / xs.size)
  }
}

/** Named metrics with units, in insertion order. */
final class Metrics {
  private val values = mutable.LinkedHashMap.empty[String, (Double, String)]

  def put(name: String, value: Double, unit: String): Unit = {
    require(!value.isNaN && !value.isInfinite, s"metric $name is $value")
    values(name) = (value, unit)
  }

  def get(name: String): Option[Double] = values.get(name).map(_._1)

  def unit(name: String): Option[String] = values.get(name).map(_._2)

  def names: Seq[String] = values.keys.toSeq

  def toJson: String =
    values.map { case (n, (v, u)) =>
      s""""${Json.esc(n)}": {"value": ${Json.num(v)}, "unit": "${Json.esc(u)}"}"""
    }.mkString("{", ", ", "}")
}

/** Operation counts of one run: every timed operation is attempted once and
  * failed when it threw or returned a wrong result.
  */
final class Outcomes {
  private var attempted = 0L
  private var failed = 0L
  private val reasons = mutable.LinkedHashMap.empty[String, Int]

  def fail(reason: String): Unit = {
    attempted += 1; failed += 1
    reasons(reason) = reasons.getOrElse(reason, 0) + 1
  }

  def record(error: Option[String]): Unit = error.fold(attempted += 1)(fail)

  def attemptedCount: Long = attempted
  def failedCount: Long = failed

  /** Up to five distinct failure reasons with their counts. */
  def summary: String =
    reasons.take(5).map { case (r, n) => s"$n× $r" }.mkString("; ")
}

object Json {
  def esc(s: String): String =
    s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    }

  /** A number with all its digits (JSON has no NaN; metrics reject it). */
  def num(v: Double): String =
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else java.lang.Double.toString(v)

  /** The result line: correctness, operations attempted and failed, metrics. */
  def result(attempted: Long, failed: Long, metrics: Metrics): String =
    s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": ${metrics.toJson}}"""
}
