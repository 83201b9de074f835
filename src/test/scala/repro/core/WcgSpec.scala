package repro.core

import org.scalatest.funsuite.AnyFunSuite

class WcgSpec extends AnyFunSuite with SeededProps {

  private val ex1 = Seq(10L, 20L, 30L, 40L).map(Window.tumbling) // Example 1

  test("window set must not contain duplicates") {
    assertThrows[IllegalArgumentException](
      Wcg(Vector(Window(10, 10), Window(10, 10)), Semantics.CoveredBy))
  }

  test("Example 6 WCG edges (Figure 6(a))") {
    val g = Wcg(ex1, Semantics.CoveredBy)
    val Seq(w1, w2, w3, w4) = ex1
    assert(g.childrenOf(w1).toSet == Set(w2, w3, w4))
    assert(g.childrenOf(w2).toSet == Set(w4))
    assert(g.childrenOf(w3).isEmpty)
    assert(g.childrenOf(w4).isEmpty)
    assert(g.parentsOf(w4).toSet == Set(w1, w2))
    assert(g.edges.size == 4)
  }

  test("covered-by and partitioned-by WCGs coincide on all-tumbling sets") {
    sampled(100) { rnd =>
      Vector.fill(4)(Window.tumbling(1 + rnd.nextLong(20))).distinct
    } { ws =>
      val a = Wcg(ws, Semantics.CoveredBy).edges.toSet
      val b = Wcg(ws, Semantics.PartitionedBy).edges.toSet
      assert(a == b, s"semantics diverge on tumbling set $ws")
    }
  }

  test("partitioned-by WCG is a subgraph of covered-by WCG") {
    sampled(150) { rnd => alignedSet(rnd, 5) } { ws =>
      val cov  = Wcg(ws, Semantics.CoveredBy).edges.toSet
      val part = Wcg(ws, Semantics.PartitionedBy).edges.toSet
      assert(part.subsetOf(cov), s"partition edge missing from coverage on $ws")
    }
  }

  test("hopping windows have no children under partitioned-by semantics") {
    val hop = Window(12, 4)
    val g = Wcg(Vector(hop, Window(24, 12), Window(36, 12)), Semantics.PartitionedBy)
    assert(g.childrenOf(hop).isEmpty)
  }

  test("virtual root relates to every window under both semantics") {
    sampled(100) { rnd => alignedSet(rnd, 5) } { ws =>
      Seq(Semantics.CoveredBy, Semantics.PartitionedBy).foreach { sem =>
        ws.foreach(w => assert(sem.relates(w, Window.virtualRoot), s"$w, $sem"))
      }
    }
  }

  test("edges respect the coverage partial order (finer -> coarser)") {
    sampled(150) { rnd => alignedSet(rnd, 6) } { ws =>
      Wcg(ws, Semantics.CoveredBy).edges.foreach { case (from, to) =>
        assert(to.coveredBy(from) && to.r > from.r)
      }
    }
  }

  test("WCG construction is quadratic, not worse: 100 windows build instantly") {
    val ws = (1L to 100L).map(i => Window(2 * i, i)).toVector
    val t0 = System.nanoTime()
    val g = Wcg(ws, Semantics.CoveredBy)
    val edges = g.edges.size
    assert((System.nanoTime() - t0) < 2000000000L, "WCG build too slow")
    assert(edges > 0)
  }
}
