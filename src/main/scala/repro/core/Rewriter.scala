package repro.core

/** The query-rewriting algorithm of §3.3, made explicit as a plan graph.
  *
  * The original plan is `Input Stream ⇒ MultiCast ⇒ {W_1…W_n} ⇒ Union`
  * (Figure 1(b) / left of Figure 2(a)). Given the min-cost WCG `G_min`,
  * the rewriting:
  *
  *  1. links the source MultiCast to every window without an incoming edge,
  *     removing that MultiCast when only one such window exists;
  *  2. inserts a MultiCast `M_v` after every window `v` with outgoing
  *     edges, linking `v → M_v`, `M_v → Union` (only when `v` is a user
  *     window — factor-window results are not exposed, §4) and `M_v → u`
  *     for each downstream `u`;
  *  3. links every remaining user window directly to Union.
  *
  * `repro.exec.Executor` implements the same dataflow operationally: one
  * exchange on the key, then one explode and aggregation per forest level,
  * where each window's rows fan out to all its children (the MultiCast
  * role). This module exists so the rewriting itself is inspectable and
  * testable as the paper states it.
  */
object Rewriter {

  sealed trait Node
  case object Source extends Node
  /** The source-side MultiCast of the original plan (kept iff ≥2 roots). */
  case object SourceMulticast extends Node
  final case class WindowNode(w: Window) extends Node
  /** MultiCast inserted after an intermediate window `v` (step 2). */
  final case class Multicast(v: Window) extends Node
  case object UnionNode extends Node

  /** A rewritten plan: nodes and directed dataflow links. */
  final case class PlanGraph(nodes: Vector[Node], links: Vector[(Node, Node)]) {
    def outgoing(n: Node): Vector[Node] = links.collect { case (`n`, to) => to }
    def incoming(n: Node): Vector[Node] = links.collect { case (from, `n`) => from }

    /** Every user-visible path must reach Union. */
    def reachesUnion(n: Node): Boolean = {
      var frontier = Vector(n); var seen = Set.empty[Node]
      while (frontier.nonEmpty) {
        val next = frontier.flatMap(outgoing).filterNot(seen)
        if (next.contains(UnionNode)) return true
        seen ++= next; frontier = next.distinct
      }
      false
    }

    /** Indented textual rendering in the spirit of Figure 2(b). */
    def render: String = {
      val sb = new StringBuilder
      def label(n: Node): String = n match {
        case Source          => "Source"
        case SourceMulticast => "Multicast"
        case WindowNode(w)   => s"Window${w.toString.drop(1)}" // W(r,s) -> Window(r,s)
        case Multicast(v)    => s"Multicast@${v.toString}"
        case UnionNode       => "Union"
      }
      def walk(n: Node, depth: Int): Unit = {
        sb ++= ("  " * depth) + label(n) + "\n"
        outgoing(n).filterNot(_ == UnionNode).foreach(walk(_, depth + 1))
      }
      walk(Source, 0)
      sb ++= "Union\n"
      sb.result()
    }
  }

  /** The unrewritten plan of Figure 1(b). */
  def originalPlan(windows: Seq[Window]): PlanGraph = {
    val wNodes = windows.map(WindowNode.apply).toVector
    PlanGraph(
      nodes = Vector(Source, SourceMulticast) ++ wNodes :+ UnionNode,
      links = Vector[(Node, Node)]((Source, SourceMulticast)) ++
        wNodes.map(n => (SourceMulticast: Node, n: Node)) ++
        wNodes.map(n => (n: Node, UnionNode: Node)))
  }

  /** Rewrite per §3.3 against a min-cost WCG (factor windows included in
    * the dataflow, excluded from Union).
    */
  def rewrite(plan: WcgPlan): PlanGraph = {
    val userSet = plan.userWindows.toSet
    val roots = plan.roots
    val links = Vector.newBuilder[(Node, Node)]
    val nodes = Vector.newBuilder[Node]
    nodes += Source
    nodes += UnionNode
    plan.allWindows.foreach(w => nodes += WindowNode(w))

    // Step 1: source side. Keep the MultiCast only for >= 2 roots.
    if (roots.size >= 2) {
      nodes += SourceMulticast
      links += ((Source, SourceMulticast))
      roots.foreach(w => links += ((SourceMulticast, WindowNode(w))))
    } else {
      roots.foreach(w => links += ((Source, WindowNode(w))))
    }

    // Steps 2 and 3: per window, MultiCast out or link straight to Union.
    plan.allWindows.foreach { v =>
      val children = plan.childrenOf(v)
      if (children.nonEmpty) {
        val m = Multicast(v)
        nodes += m
        links += ((WindowNode(v), m))
        if (userSet.contains(v)) links += ((m, UnionNode))
        children.foreach(u => links += ((m, WindowNode(u))))
      } else if (userSet.contains(v)) {
        links += ((WindowNode(v), UnionNode))
      }
    }
    PlanGraph(nodes.result().distinct, links.result())
  }
}
