package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.{EvalHarness, TechniqueCosts}
import scala.collection.mutable

/** Base for the per-figure benchmark suites: prints the table of the panel
  * `name` of `EvalHarness.panels` at each of its rates and asserts the
  * *shape* relations the paper reports — which technique wins and by
  * roughly what factor — rather than absolute numbers.
  */
abstract class FigureBench(name: String) extends AnyFunSuite {

  private val panel = EvalHarness.panel(name)
  private val rowsByEta = mutable.Map.empty[Long, Seq[EvalHarness.Row]]

  /** The panel's rows at a given rate, evaluated once per rate. */
  private def rows(eta: Long): Seq[EvalHarness.Row] =
    rowsByEta.getOrElseUpdate(eta, EvalHarness.evaluate(panel.kind, panel.semantics, eta))

  /** Per-set costs at a given rate. */
  protected def costs(eta: Long): Seq[(String, TechniqueCosts)] =
    rows(eta).map { case (label, _, c) => label -> c }

  /** Geometric mean of `f(c)/BL` over the ten sets. */
  protected def geo(eta: Long)(f: TechniqueCosts => BigInt): Double =
    EvalHarness.geoMeanVsBl(costs(eta).map(_._2))(f)

  panel.etas.foreach { eta =>
    test(s"$name table at eta=$eta") {
      println(EvalHarness.render(panel.title(eta), panel.kind, panel.semantics, eta, rows(eta)))
      costs(eta).foreach { case (label, c) =>
        assert(c.toSeq.forall(_._2 > 0), s"$label: non-positive cost")
        assert(c.wcg <= c.bl, s"$label: WCG above BL")
        assert(c.wcgFw <= c.wcg, s"$label: WCG-FW above WCG")
      }
    }
  }

  /** Shape assertions shared by the η=100 panels (the paper's focus). */
  protected def assertHighRateShape(spFactor: Double): Unit =
    test(s"$name shape at eta=100: sharing wins, WCG-FW comparable to SP") {
      costs(100).foreach { case (label, c) =>
        assert(c.sp <= c.up, s"$label: SP above UP at eta=100")
      }
      val (gUp, gSp, gWcgFw) = (geo(100)(_.up), geo(100)(_.sp), geo(100)(_.wcgFw))
      assert(gSp < gUp, "SP should beat UP on geometric mean")
      assert(gWcgFw < 1.0, "WCG-FW should improve on BL")
      assert(gWcgFw <= spFactor * gSp,
        f"WCG-FW ($gWcgFw%.4f) not comparable to SP ($gSp%.4f) within ${spFactor}x")
    }
}
