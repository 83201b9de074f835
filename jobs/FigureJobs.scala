package repro.jobs

import repro.eval.EvalHarness

/** spark-submit entrypoints, one per evaluation figure. The figure
  * experiments are analytic-cost comparisons (as in the paper), so these
  * mains need no SparkSession; they are jobs so every reproduced artifact
  * has a uniform `spark-submit --class repro.jobs.<Name>` entrypoint. Each
  * prints its panels of `EvalHarness.panels`, one table per rate.
  */
private object FigureJob {
  def print(panels: String*): Unit =
    panels.map(EvalHarness.panel).foreach(p => p.etas.foreach(eta =>
      println(EvalHarness.render(p.title(eta), p.kind, p.semantics, eta,
        EvalHarness.evaluate(p.kind, p.semantics, eta)))))
}

/** Figure 11: RandomGen, general windows. */
object Fig11Job { def main(args: Array[String]): Unit = FigureJob.print("Figure 11") }

/** Figure 12: RandomGen, tumbling windows. */
object Fig12Job { def main(args: Array[String]): Unit = FigureJob.print("Figure 12") }

/** Figure 13: ChainGen, general (a) and tumbling (b). */
object Fig13Job {
  def main(args: Array[String]): Unit = FigureJob.print("Figure 13(a)", "Figure 13(b)")
}

/** Figure 14: StarGen, general (a) and tumbling (b). */
object Fig14Job {
  def main(args: Array[String]): Unit = FigureJob.print("Figure 14(a)", "Figure 14(b)")
}

/** Figure 15: RandomGraphGen (3 levels, 2/4/6 windows). */
object Fig15Job { def main(args: Array[String]): Unit = FigureJob.print("Figure 15") }
