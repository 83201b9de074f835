package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Window
import repro.jobs.Table1Job
import repro.slicing.Slicing

/** Table 1: the window-slicing cost model. Prints the instantiated table
  * and asserts the formulas against hand-computed values (that the slice
  * edges align every window instance is checked in SlicingSpec; here we
  * pin the cost *numbers*).
  */
class Table1Bench extends AnyFunSuite {

  private val ex1     = Seq(10L, 20L, 30L, 40L).map(Window.tumbling)
  private val hopping = Seq(Window(10, 2), Window(12, 4), Window(30, 6), Window(16, 8))

  test("Table 1 instantiations print") {
    Seq(1L, 100L).foreach { eta =>
      println(Table1Job.render("Example-1 tumbling set", ex1, eta))
      println(Table1Job.render("hopping set", hopping, eta))
    }
  }

  test("Table 1 row 'Unshared paned': partial nT, final sum (S/s_i)(r_i/g_i)") {
    val c = Slicing.unsharedPaned(hopping, 1)
    val s = Slicing.slicingPeriod(hopping) // lcm(2,4,6,8) = 24
    assert(s == 24)
    assert(c.partial == 4 * 24)
    // g = gcd(r,s): (10,2)->2, (12,4)->4, (30,6)->6, (16,8)->8
    // final = (24/2)(10/2) + (24/4)(12/4) + (24/6)(30/6) + (24/8)(16/8)
    assert(c.finalAgg == 12 * 5 + 6 * 3 + 4 * 5 + 3 * 2)
  }

  test("Table 1 row 'Unshared paired': partial nT, final sum (S/s_i)ceil(2r_i/s_i)") {
    val c = Slicing.unsharedPaired(hopping, 1)
    assert(c.partial == 4 * 24)
    assert(c.finalAgg == 12 * 10 + 6 * 6 + 4 * 10 + 3 * 4)
  }

  test("Table 1 rows 'Shared paned/paired': partial T, final E * k_i") {
    val sPaned  = Slicing.sharedPaned(hopping, 1)
    val sPaired = Slicing.sharedPaired(hopping, 1)
    assert(sPaned.partial == 24 && sPaired.partial == 24)
    val ePaned  = Slicing.countUnion(hopping.flatMap(Slicing.panedEdges), 24)
    val ePaired = Slicing.countUnion(hopping.flatMap(Slicing.pairedEdges), 24)
    assert(ePaired <= ePaned, "paired composition is never finer than paned")
    val ks = hopping.map(w => BigInt(w.r / w.s))
    assert(sPaned.finalAgg == ks.map(_ * ePaned).sum)
    assert(sPaired.finalAgg == ks.map(_ * ePaired).sum)
  }

  test("Table 1 on the Example-1 tumbling set: E = 12 composed slices") {
    val e = Slicing.countUnion(ex1.flatMap(Slicing.pairedEdges), 120)
    assert(e == 12) // multiples of 10 in [0,120)
    assert(Slicing.sharedPaired(ex1, 100).total == 100 * 120 + 12 * 4)
  }

  test("partial costs scale with eta, final costs do not") {
    Seq(ex1, hopping).foreach { ws =>
      val c1 = Slicing.sharedPaired(ws, 1)
      val c9 = Slicing.sharedPaired(ws, 9)
      assert(c9.partial == 9 * c1.partial)
      assert(c9.finalAgg == c1.finalAgg)
    }
  }
}
