package repro.exec

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.Window

class WindowAssignSpec extends SparkSpec {
  import spark.implicits._

  /** Brute-force instance assignment: all m ≥ 0 with m·s ≤ u and v ≤ m·s+r. */
  private def brute(u: Long, v: Long, w: Window): Seq[Long] =
    (0L to u / w.s).collect { case m if m * w.s <= u && v <= m * w.s + w.r => m * w.s }

  private val windows =
    Seq(Window(10, 2), Window(7, 3), Window(5, 5), Window(1, 1), Window(12, 4))

  test("floorDiv and ceilDiv are exact for negative numerators") {
    val df = Seq(-7L, -6L, -1L, 0L, 1L, 6L, 7L).toDF("a")
    val got = df.select(
      $"a",
      WindowAssign.floorDiv($"a", 3).as("fd"),
      WindowAssign.ceilDiv($"a", 3).as("cd")).collect()
    got.foreach { r =>
      val a = r.getLong(0)
      assert(r.getLong(1) == Math.floorDiv(a, 3), s"floorDiv($a,3)")
      assert(r.getLong(2) == -Math.floorDiv(-a, 3), s"ceilDiv($a,3)")
    }
  }

  test("floorDiv, ceilDiv and event assignment are exact on longs near 2^60") {
    val as = Seq(1700000000000000123L, (1L << 60) + 7, -(1L << 60) - 7, (1L << 62) + 1)
    Seq(3L, 10L, 1000L).foreach { s =>
      as.toDF("a")
        .select($"a", WindowAssign.floorDiv($"a", s), WindowAssign.ceilDiv($"a", s),
          WindowAssign.instanceStartsForEvent($"a", Window.tumbling(s)))
        .collect().foreach { r =>
          val a = r.getLong(0)
          assert(r.getLong(1) == Math.floorDiv(a, s), s"floorDiv($a,$s)")
          assert(r.getLong(2) == -Math.floorDiv(-a, s), s"ceilDiv($a,$s)")
          val starts = if (a < 0) Nil else Seq(Math.floorDiv(a, s) * s)
          assert(r.getSeq[Long](3) == starts, s"instance of t=$a in W($s,$s)")
        }
    }
  }

  test("event instance assignment matches brute force for every window shape") {
    val ts = (0L until 60L).toDF("t")
    windows.foreach { w =>
      val got = ts
        .select($"t", WindowAssign.instanceStartsForEvent($"t", w).as("starts"))
        .collect()
        .map(r => r.getLong(0) -> r.getSeq[Long](1).sorted)
        .toMap
      (0L until 60L).foreach { t =>
        assert(got(t) == brute(t, t + 1, w), s"event t=$t window $w")
      }
    }
  }

  test("span instance assignment matches brute force for upstream intervals") {
    for (up <- windows; w <- windows if w != up && w.coveredBy(up)) {
      // here `w` plays the downstream consumer of `up`'s intervals: check
      // assignment of up's intervals into w's instances
      val spans = (0L to 20L).map(m => (m * up.s, m * up.s + up.r))
      val df = spans.toDF("u", "v")
      val got = df
        .select($"u", WindowAssign.instanceStarts($"u", $"v", w).as("starts"))
        .collect()
        .map(r => r.getLong(0) -> r.getSeq[Long](1).sorted)
        .toMap
      spans.foreach { case (u, v) =>
        assert(got(u) == brute(u, v, w), s"span [$u,$v) of $up into $w")
      }
    }
  }

  test("spans longer than the window range are assigned nowhere") {
    val df = Seq((0L, 100L), (5L, 40L)).toDF("u", "v")
    val got = df.select(WindowAssign.instanceStarts($"u", $"v", Window(10, 2)).as("s"))
      .collect().map(_.getSeq[Long](0))
    assert(got.forall(_.isEmpty))
  }

  test("covering-set cardinality equals the covering multiplier M (Theorem 3)") {
    // Assign upstream intervals into downstream instances and invert: each
    // downstream instance away from the stream origin receives exactly
    // M(w, up) upstream intervals.
    val (w, up) = (Window(10, 2), Window(8, 2))
    val spans = (0L to 40L).map(m => (m * up.s, m * up.s + up.r))
    val counts = spans.toDF("u", "v")
      .select(explode(WindowAssign.instanceStarts($"u", $"v", w)).as("wstart"))
      .groupBy("wstart").count()
      .collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    val m = w.multiplier(up)
    (0L to 30L by w.s).foreach(a => assert(counts(a) == m, s"instance $a"))
  }
}
