package repro.jobs

import repro.core.Window
import repro.slicing.Slicing

/** Table 1: the window-slicing cost model (partial/final costs of
  * unshared/shared paned/paired windows), instantiated on concrete window
  * sets so the formulas can be read off and compared.
  */
object Table1Job {

  /** The window sets Table 1 is instantiated on, by title. */
  val sets: Seq[(String, Seq[Window])] = Seq(
    "Example-1 tumbling set" -> Seq(10L, 20L, 30L, 40L).map(Window.tumbling),
    "hopping set"            -> Seq(Window(10, 2), Window(12, 4), Window(30, 6), Window(16, 8)))

  /** The event rates each set is printed at. */
  val etas: Seq[Long] = Seq(1L, 100L)

  /** Table 1's four rows on `windows` at rate `eta`. */
  def rows(windows: Seq[Window], eta: Long): Seq[(String, Slicing.SlicingCosts)] = {
    val e = BigInt(eta)
    Seq(
      ("Unshared paned",  Slicing.unsharedPaned(windows, e)),
      ("Unshared paired", Slicing.unsharedPaired(windows, e)),
      ("Shared paned",    Slicing.sharedPaned(windows, e)),
      ("Shared paired",   Slicing.sharedPaired(windows, e)),
    )
  }

  def render(title: String, windows: Seq[Window], eta: Long): String = {
    val sb = new StringBuilder
    sb ++= s"== Table 1 on $title  (eta=$eta, S=${Slicing.slicingPeriod(windows)}) ==\n"
    sb ++= s"   windows: ${windows.mkString(" ")}\n"
    sb ++= f"${"technique"}%-16s ${"partial"}%14s ${"final"}%14s ${"total"}%14s\n"
    rows(windows, eta).foreach { case (n, c) =>
      sb ++= f"$n%-16s ${c.partial}%14s ${c.finalAgg}%14s ${c.total}%14s\n"
    }
    sb.result()
  }

  def main(args: Array[String]): Unit =
    etas.foreach(eta => sets.foreach { case (title, ws) => println(render(title, ws, eta)) })
}
