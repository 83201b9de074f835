package repro.perfbench

import scala.collection.mutable

/** One traced call into a layer: `parent` is the id of the enclosing span
  * (-1 for none). Times are `System.nanoTime` readings.
  */
final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long) {
  /** The layer is the span name up to its first dot (`core`, `exec`, …). */
  def layer: String = name.takeWhile(_ != '.')
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Records a span around each call the benchmark makes into a layer and
  * keeps them in memory until the run ends. Until `on` is set it only runs
  * the body, so untraced runs and the untraced half of a traced run pay
  * nothing for it.
  */
final class Tracer {
  var on = false
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open = List.empty[Int]
  private var nextId = 0

  def span[A](name: String)(body: => A): A =
    if (!on) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        spans += Span(id, name, parent, t0, System.nanoTime())
        open = open.tail
      }
    }

  def all: Seq[Span] = spans.toSeq

  /** Self time per layer in seconds: each span's duration minus the part
    * covered by its child spans, summed by layer.
    */
  def selfSecondsByLayer: Map[String, Double] = {
    val childTime = spans.groupBy(_.parent).view.mapValues(_.map(_.seconds).sum).toMap
    spans.groupBy(_.layer).view.mapValues(_.map(s =>
      s.seconds - childTime.getOrElse(s.id, 0.0)).sum).toMap
  }
}
