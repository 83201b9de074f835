package repro.eval

import repro.core.{Semantics, Window}
import repro.gen.WindowGen

/** Shared harness that regenerates the evaluation figures' data as text
  * tables. Each figure of §5.3 becomes one table: rows are the ten
  * randomly-generated window sets, columns the five techniques' costs over
  * the common period. `panels` declares every panel once; the spark-submit
  * jobs print it through `render`, and `TechniquesSpec` pins every cost
  * they print.
  */
object EvalHarness {

  val SetsPerExperiment = 10
  val WindowsPerSet     = 5
  val BaseSeed          = 20220513L // fixed → reproducible tables

  /** The window-set generators of §5.2, keyed as in the paper. */
  def generate(kind: String, seed: Long): Vector[Window] = {
    val g = new WindowGen(seed)
    kind match {
      case "random"          => g.randomSet(WindowsPerSet)
      case "random-tumbling" => g.randomTumblingSet(WindowsPerSet)
      case "chain"           => g.chainSet(WindowsPerSet)
      case "chain-tumbling"  => g.chainTumblingSet(WindowsPerSet)
      case "star"            => g.starSet(WindowsPerSet)
      case "star-tumbling"   => g.starTumblingSet(WindowsPerSet)
      // Fig. 15 setup: 3 levels of 2/4/6 windows (base 2, +2 per level).
      case "dag"             => g.dagSet(levels = 3, base = 2, delta = 2, p = 0.5)
      case other             => throw new IllegalArgumentException(s"unknown generator '$other'")
    }
  }

  /** Ten deterministic window sets for a generator kind. */
  def sets(kind: String): Seq[(String, Vector[Window])] =
    (1 to SetsPerExperiment).map(i => (s"set$i", generate(kind, BaseSeed + 1000L * i)))

  /** Geometric mean of `f(c)/BL` over `costs`: the "shape" statistic
    * recorded in EXPERIMENTS.md (the paper reports log-scale per-set bars).
    */
  def geoMeanVsBl(costs: Seq[TechniqueCosts])(f: TechniqueCosts => BigInt): Double = {
    val logs = costs.map(c => math.log(f(c).doubleValue / c.bl.doubleValue))
    math.exp(logs.sum / logs.size)
  }

  /** One figure panel of §5.3: a generator kind, evaluated under one
    * aggregate semantics at each event rate η of `etas`.
    */
  final case class Panel(name: String, kind: String, semantics: Semantics, etas: Seq[Long]) {
    def title(eta: Long): String = s"$name (eta=$eta)"
  }

  /** Every panel of Figures 11–15, as the jobs print them. */
  val panels: Seq[Panel] = Seq(
    Panel("Figure 11", "random", Semantics.CoveredBy, Seq(1L, 10L, 100L)),
    Panel("Figure 12", "random-tumbling", Semantics.PartitionedBy, Seq(1L, 10L, 100L)),
    Panel("Figure 13(a)", "chain", Semantics.CoveredBy, Seq(100L)),
    Panel("Figure 13(b)", "chain-tumbling", Semantics.PartitionedBy, Seq(100L)),
    Panel("Figure 14(a)", "star", Semantics.CoveredBy, Seq(100L)),
    Panel("Figure 14(b)", "star-tumbling", Semantics.PartitionedBy, Seq(100L)),
    Panel("Figure 15", "dag", Semantics.CoveredBy, Seq(100L)))

  /** The panel of `panels` named `name`. */
  def panel(name: String): Panel =
    panels.find(_.name == name)
      .getOrElse(throw new IllegalArgumentException(s"unknown panel '$name'"))

  /** One table row: a window set's label, its windows and its costs. */
  type Row = (String, Vector[Window], TechniqueCosts)

  /** All sets of a generator kind × all techniques. */
  def evaluate(kind: String, semantics: Semantics, eta: Long): Seq[Row] =
    sets(kind).map { case (label, ws) => (label, ws, Techniques.evaluate(ws, semantics, eta)) }

  /** The text table of one experiment's rows, with the geo-mean summary. */
  def render(title: String, kind: String, semantics: Semantics, eta: Long,
             rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb ++= s"== $title  (generator=$kind, semantics=$semantics, eta=$eta) ==\n"
    sb ++= f"${"set"}%-6s ${"BL"}%14s ${"UP"}%14s ${"SP"}%14s ${"WCG"}%14s ${"WCG-FW"}%14s   windows\n"
    rows.foreach { case (label, ws, c) =>
      sb ++= f"$label%-6s ${c.bl}%14s ${c.up}%14s ${c.sp}%14s ${c.wcg}%14s ${c.wcgFw}%14s   ${ws.mkString(" ")}\n"
    }
    val geoMeanRatio = geoMeanVsBl(rows.map(_._3)) _
    sb ++= f"geo-mean cost ratio vs BL:  UP=${geoMeanRatio(_.up)}%.4f  " +
      f"SP=${geoMeanRatio(_.sp)}%.4f  WCG=${geoMeanRatio(_.wcg)}%.4f  " +
      f"WCG-FW=${geoMeanRatio(_.wcgFw)}%.4f\n"
    sb.result()
  }
}
