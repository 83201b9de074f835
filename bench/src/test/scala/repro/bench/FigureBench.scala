package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Semantics
import repro.eval.{EvalHarness, Techniques, TechniqueCosts}
import scala.collection.mutable

/** Base for the per-figure benchmark suites: prints the figure's data table
  * (captured into bench_output.txt) and asserts the *shape* relations the
  * paper reports — which technique wins and by roughly what factor — rather
  * than absolute numbers.
  */
abstract class FigureBench(figure: String, kind: String, sem: Semantics,
                           etas: Seq[Long]) extends AnyFunSuite {

  private val costsByEta = mutable.Map.empty[Long, Seq[(String, TechniqueCosts)]]

  /** Per-set costs at a given rate, evaluated once per rate. */
  protected def costs(eta: Long): Seq[(String, TechniqueCosts)] =
    costsByEta.getOrElseUpdate(eta, EvalHarness.sets(kind).map { case (label, ws) =>
      label -> Techniques.evaluate(ws, sem, eta)
    })

  /** Geometric mean of `f(c)/BL` over the ten sets. */
  protected def geo(eta: Long)(f: TechniqueCosts => BigInt): Double =
    EvalHarness.geoMeanVsBl(costs(eta).map(_._2))(f)

  etas.foreach { eta =>
    test(s"$figure table at eta=$eta") {
      println(EvalHarness.runExperiment(s"$figure (eta=$eta)", kind, sem, eta))
      costs(eta).foreach { case (label, c) =>
        assert(c.toSeq.forall(_._2 > 0), s"$label: non-positive cost")
        assert(c.wcg <= c.bl, s"$label: WCG above BL")
        assert(c.wcgFw <= c.wcg, s"$label: WCG-FW above WCG")
      }
    }
  }

  /** Shape assertions shared by the η=100 panels (the paper's focus). */
  protected def assertHighRateShape(spFactor: Double): Unit =
    test(s"$figure shape at eta=100: sharing wins, WCG-FW comparable to SP") {
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
