package repro.exec

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._
import repro.core.Semantics

/** A window aggregate in the distributive/algebraic form of §3.1 (Gray et
  * al.'s taxonomy), in two forms of the same algebra. As Spark columns:
  *
  *  - `lift` turns an event value into a sub-aggregate state (an event is a
  *    singleton sub-aggregate);
  *  - `merge` is the aggregate expression combining a group of states into
  *    one (the function `g`);
  *  - `finish` maps a state to the user-visible result (the function `h`;
  *    identity for distributive aggregates).
  *
  * As scalars, a state is a `Double` value and a `Long` count of the events
  * merged into it: `liftValue` is the value of one event's state, `g`
  * combines two values (counts add) and `finish(value, count)` is `h`.
  * `ForestEval`, the map- and reduce-side body of `Executor.rewritten`, runs
  * this primitive form.
  *
  * `semantics` is the WCG relation the aggregate admits (footnote 5):
  * MIN/MAX remain distributive over *overlapping* covers (Theorem 6) and
  * use "covered by"; SUM/COUNT/AVG need disjoint partitions ("partitioned
  * by", Theorem 5). Holistic aggregates (e.g. MEDIAN) have no such form and
  * are out of scope, as in the paper.
  */
sealed abstract class AggSpec(val name: String, val semantics: Semantics) {
  def lift(v: Column): Column
  def merge(st: Column): Column
  def finish(st: Column): Column

  /** `g` on the values of two scalar states. */
  def g(a: Double, b: Double): Double

  /** The value of the state that an event of value `v` lifts to (its count
    * is 1).
    */
  def liftValue(v: Double): Double = v

  /** `h` on a scalar state of `value` and `count` events. */
  def finish(value: Double, count: Long): Double = value
}

object AggSpec {
  /** MIN — distributive, tolerant of overlapping covers (Theorem 6). */
  case object Min extends AggSpec("min", Semantics.CoveredBy) {
    def lift(v: Column): Column = v
    def merge(st: Column): Column = min(st)
    def finish(st: Column): Column = st
    def g(a: Double, b: Double): Double = math.min(a, b)
  }

  /** MAX — distributive, tolerant of overlapping covers (Theorem 6). */
  case object Max extends AggSpec("max", Semantics.CoveredBy) {
    def lift(v: Column): Column = v
    def merge(st: Column): Column = max(st)
    def finish(st: Column): Column = st
    def g(a: Double, b: Double): Double = math.max(a, b)
  }

  /** SUM — distributive, requires disjoint partitions. */
  case object Sum extends AggSpec("sum", Semantics.PartitionedBy) {
    def lift(v: Column): Column = v
    def merge(st: Column): Column = sum(st)
    def finish(st: Column): Column = st
    def g(a: Double, b: Double): Double = a + b
  }

  /** COUNT — distributive with `g = SUM`, requires disjoint partitions. */
  case object Count extends AggSpec("count", Semantics.PartitionedBy) {
    def lift(v: Column): Column = lit(1L)
    def merge(st: Column): Column = sum(st)
    def finish(st: Column): Column = st
    def g(a: Double, b: Double): Double = a + b
    override def liftValue(v: Double): Double = 1.0
  }

  /** AVG — algebraic: state is (sum, count), finished by division. A null
    * value adds nothing to either, as in SQL's AVG.
    */
  case object Avg extends AggSpec("avg", Semantics.PartitionedBy) {
    def lift(v: Column): Column =
      struct(v.cast("double").as("s"), v.isNotNull.cast("long").as("c"))
    def merge(st: Column): Column =
      struct(sum(st.getField("s")).as("s"), sum(st.getField("c")).as("c"))
    def finish(st: Column): Column = st.getField("s") / st.getField("c")
    def g(a: Double, b: Double): Double = a + b
    override def finish(value: Double, count: Long): Double = value / count
  }

  val all: Seq[AggSpec] = Seq(Min, Max, Sum, Count, Avg)
}
