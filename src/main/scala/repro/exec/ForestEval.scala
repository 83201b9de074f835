package repro.exec

import repro.core.{NumberTheory, Window, WcgPlan}
import scala.collection.mutable

/** The rewritten plan of §3.3 run in memory, with `AggSpec`'s primitive
  * scalar form: the pure-Scala body of `Executor.rewritten`, in two halves.
  *
  *  - Map side, `PaneBuilder`: the events of one input partition are merged,
  *    per key, into panes `[p, p + g)` of length `g = paneLength(plan)` (Li
  *    et al., "No pane, no gain", SIGMOD Record 2005). Every root instance
  *    is a union of whole panes, so merging pane states is exact under both
  *    semantics; each event falls into exactly one pane, so there are never
  *    more panes than events. The builder keeps its state in primitive
  *    arrays and allocates nothing per event.
  *  - Reduce side, `fromPanes`: every pane received is merged, by its
  *    start, into a second `PaneBuilder` of length `g`, which gives one run
  *    of panes per key sorted by start. Then, one key at a time, every
  *    node, in `plan.levels` order, sweeps its input spans in order: the
  *    panes for a root, its parent's instances for any other node. This is
  *    the `Multicast` of §3.3 as plain code.
  *
  * A span `[u, v)` (a pane, or a sub-aggregate's interval) lies in instance
  * `m` of `W⟨r, s⟩` iff `⌈(v − r)/s⌉ ≤ m ≤ ⌊u/s⌋` and `m ≥ 0`, the formula
  * of `WindowAssign`, here in exact `Long` arithmetic. A node's input spans
  * all have one length, so both bounds never decrease along spans sorted by
  * start: the instances still open are a contiguous run at the tail of the
  * node's output, which comes out sorted by start and feeds its children
  * in turn. A sweep needs no map and no object per instance (Traub et al.,
  * "Scotty", EDBT 2019, keep their slices sorted in the same way).
  *
  * Memory: the panes of the whole partition, in the reduce side's builder,
  * plus one key's sorted panes and the instances of its forest, whose
  * arrays are reused for the next key.
  */
object ForestEval {

  /** Makes an output row `(w_r, w_s, k, wstart, value)`, the layout of
    * `Executor.outputSchema`, of some type from its fields, unboxed.
    */
  trait MakeRow[T] {
    def apply(r: Long, s: Long, k: Long, wstart: Long, value: Double): T
  }

  /** One key's panes of `length` time units, from one input partition or
    * merged on the reduce side, as parallel arrays sorted by start: the
    * pane's start and its state's value and count. The count is the number
    * of events merged into the pane, since every event lifts to a state of
    * count 1.
    */
  final class Panes(val length: Long, val start: Array[Long], val value: Array[Double],
                    val count: Array[Long]) extends Serializable {
    require(start.length == value.length && start.length == count.length, "ragged panes")
    private def sorted: Boolean = {
      var i = 1
      while (i < start.length && start(i - 1) < start(i)) i += 1
      i >= start.length
    }
    require(sorted, "pane starts must increase")
  }

  /** The pane length of `plan`: the gcd of its roots' ranges and slides, so
    * that every root instance is a union of whole panes.
    */
  def paneLength(plan: WcgPlan): Long = {
    require(plan.roots.nonEmpty, "empty window set")
    NumberTheory.gcdAll(plan.roots.flatMap(w => Seq(BigInt(w.r), BigInt(w.s)))).toLong
  }

  /** Merges events `(k, t, v)`, or the states of finer panes, into panes of
    * length `g`, per key, for aggregate `agg`: the map side's events and
    * the reduce side's panes go through this one merger. A state at time
    * `t` goes to pane `q = ⌊t/g⌋`; pane `q` of key `k` sits in a chunk of the
    * `ChunkSize` panes that share `q >> ChunkBits`; an open-addressing table
    * finds the chunk of `(k, q >> ChunkBits)`, and the chunks' pane states
    * lie in slabs that are never copied. `add` allocates nothing unless it
    * opens a chunk: it allocates a slab every `SlabChunks` chunks and grows
    * its tables by doubling. `result` allocates the `Panes`.
    */
  final class PaneBuilder(g: Long, agg: AggSpec) {
    require(g > 0, s"pane length $g")
    import PaneBuilder._

    // Chunk n holds panes (chunkC(n) << ChunkBits) + [0, ChunkSize) of key
    // keyK(chunkKey(n)); chunkNext(n) is the key's previous chunk, or -1.
    private var chunks = 0
    private var chunkC = new Array[Long](64)
    private var chunkKey = new Array[Int](64)
    private var chunkNext = new Array[Int](64)
    // The value and count of pane o of chunk n: slab n >>> SlabBits, index
    // ((n & SlabMask) << ChunkBits) + o. A count of 0 is a pane without events.
    private var values = new Array[Array[Double]](16)
    private var counts = new Array[Array[Long]](16)
    // Open addressing, at most half full: chunk n + 1 by (k, chunk index);
    // key index + 1 by k. 0 is an empty slot.
    private var chunkTable = new Array[Int](128)
    private var keyTable = new Array[Int](32)
    // Key index key: its k, first chunk and number of panes.
    private var keys = 0
    private var keyK = new Array[Long](16)
    private var keyHead = new Array[Int](16)
    private var keyPanes = new Array[Int](16)

    /** Adds the event `(k, t, v)`. */
    def add(k: Long, t: Long, v: Double): Unit = add(k, t, agg.liftValue(v), 1L)

    /** Merges a state of `value` and `count > 0` events at time `t` of key
      * `k` into pane `⌊t/g⌋`.
      */
    def add(k: Long, t: Long, value: Double, count: Long): Unit = {
      val q = Math.floorDiv(t, g)
      val n = chunkOf(k, q >> ChunkBits)
      val i = ((n & SlabMask) << ChunkBits) | (q & (ChunkSize - 1)).toInt
      val slabValue = values(n >>> SlabBits)
      val slabCount = counts(n >>> SlabBits)
      if (slabCount(i) == 0) { slabValue(i) = value; keyPanes(chunkKey(n)) += 1 }
      else slabValue(i) = agg.g(slabValue(i), value)
      slabCount(i) += count
    }

    /** The panes of every key seen, one `Panes` per key, sorted by start. */
    def result(): Iterator[(Long, Panes)] = {
      val order = new Array[Long](chunks)
      Iterator.range(0, keys).map(key => keyK(key) -> panesOf(key, order))
    }

    /** The panes of key index `key`, its chunks sorted in `order`. */
    private def panesOf(key: Int, order: Array[Long]): Panes = {
      var m = 0
      var n = keyHead(key)
      while (n >= 0) { order(m) = chunkC(n); m += 1; n = chunkNext(n) }
      java.util.Arrays.sort(order, 0, m)
      val start = new Array[Long](keyPanes(key))
      val value = new Array[Double](keyPanes(key))
      val count = new Array[Long](keyPanes(key))
      var size = 0
      var j = 0
      while (j < m) {
        n = chunkTable(chunkSlot(keyK(key), order(j))) - 1
        val slabValue = values(n >>> SlabBits)
        val slabCount = counts(n >>> SlabBits)
        var o = 0
        while (o < ChunkSize) {
          val i = ((n & SlabMask) << ChunkBits) | o
          if (slabCount(i) > 0) {
            start(size) = ((order(j) << ChunkBits) | o) * g
            value(size) = slabValue(i); count(size) = slabCount(i)
            size += 1
          }
          o += 1
        }
        j += 1
      }
      new Panes(g, start, value, count)
    }

    /** The slot of `chunkTable` that holds chunk `(k, c)`, or the empty slot
      * where it belongs.
      */
    private def chunkSlot(k: Long, c: Long): Int = {
      val mask = chunkTable.length - 1
      var s = hash(k, c) & mask
      while (chunkTable(s) != 0 && !(keyK(chunkKey(chunkTable(s) - 1)) == k && chunkC(chunkTable(s) - 1) == c))
        s = (s + 1) & mask
      s
    }

    private def chunkOf(k: Long, c: Long): Int = {
      val s = chunkSlot(k, c)
      if (chunkTable(s) != 0) chunkTable(s) - 1 else newChunk(k, c, s)
    }

    private def newChunk(k: Long, c: Long, slot: Int): Int = {
      val n = chunks
      if (n == chunkC.length) {
        chunkC = java.util.Arrays.copyOf(chunkC, 2 * n)
        chunkKey = java.util.Arrays.copyOf(chunkKey, 2 * n)
        chunkNext = java.util.Arrays.copyOf(chunkNext, 2 * n)
      }
      if ((n & SlabMask) == 0) {
        val slab = n >>> SlabBits
        if (slab == values.length) {
          values = java.util.Arrays.copyOf(values, 2 * slab)
          counts = java.util.Arrays.copyOf(counts, 2 * slab)
        }
        values(slab) = new Array[Double](SlabChunks << ChunkBits)
        counts(slab) = new Array[Long](SlabChunks << ChunkBits)
      }
      val key = keyOf(k)
      chunkC(n) = c; chunkKey(n) = key; chunkNext(n) = keyHead(key)
      keyHead(key) = n
      chunkTable(slot) = n + 1
      chunks += 1
      if (2 * chunks > chunkTable.length) {
        chunkTable = new Array[Int](2 * chunkTable.length)
        var j = 0
        while (j < chunks) { chunkTable(chunkSlot(keyK(chunkKey(j)), chunkC(j))) = j + 1; j += 1 }
      }
      n
    }

    private def keySlot(k: Long): Int = {
      val mask = keyTable.length - 1
      var s = hash(k, 0) & mask
      while (keyTable(s) != 0 && keyK(keyTable(s) - 1) != k) s = (s + 1) & mask
      s
    }

    private def keyOf(k: Long): Int = {
      val s = keySlot(k)
      if (keyTable(s) != 0) return keyTable(s) - 1
      val key = keys
      if (key == keyK.length) {
        keyK = java.util.Arrays.copyOf(keyK, 2 * key)
        keyHead = java.util.Arrays.copyOf(keyHead, 2 * key)
        keyPanes = java.util.Arrays.copyOf(keyPanes, 2 * key)
      }
      keyK(key) = k; keyHead(key) = -1
      keyTable(s) = key + 1
      keys += 1
      if (2 * keys > keyTable.length) {
        keyTable = new Array[Int](2 * keyTable.length)
        var j = 0
        while (j < keys) { keyTable(keySlot(keyK(j))) = j + 1; j += 1 }
      }
      key
    }
  }

  object PaneBuilder {
    private final val ChunkBits = 3
    private final val ChunkSize = 1 << ChunkBits
    private final val SlabBits = 7
    private final val SlabChunks = 1 << SlabBits
    private final val SlabMask = SlabChunks - 1

    private def hash(a: Long, b: Long): Int = {
      var h = a * 0x9E3779B97F4A7C15L + b
      h = (h ^ (h >>> 33)) * 0xFF51AFD7ED558CCDL
      (h ^ (h >>> 33)).toInt
    }
  }

  /** Run `plan` over keyed panes for aggregate `agg`. A key may come in
    * several `Panes` (one per input partition); every pane is merged into
    * pane `⌊start/g⌋` of `g = paneLength(plan)`, so every pane length must
    * divide `g`. The panes are read now; the forest is swept, one key at a
    * time, when the result is read.
    */
  def fromPanes(plan: WcgPlan, agg: AggSpec, keyed: Iterator[(Long, Panes)]): Result = {
    val g = paneLength(plan)
    val builder = new PaneBuilder(g, agg)
    keyed.foreach { case (k, ps) =>
      require(g % ps.length == 0, s"panes of length ${ps.length} straddle root instances of ${plan.roots}")
      var j = 0
      while (j < ps.start.length) { builder.add(k, ps.start(j), ps.value(j), ps.count(j)); j += 1 }
    }
    new Result(plan, agg, builder)
  }

  /** The forest of a run: read it with `emit` or `merged`. Each read
    * sweeps every key again.
    */
  final class Result private[ForestEval] (plan: WcgPlan, agg: AggSpec, panes: PaneBuilder) {

    /** The user windows' rows, one per key per instance that saw an event,
      * each made by `make`: one key's rows are made right after its sweep,
      * before the next key is swept.
      */
    def emit[T](make: MakeRow[T]): Iterator[T] = {
      val forest = new Forest(plan, agg)
      panes.result().flatMap { case (k, ps) => forest.sweep(ps); forest.rows(k, make) }
    }

    /** Items merged into each instance of `w` (events for a root, parent
      * sub-aggregates for any other node), by instance start, summed over
      * keys.
      */
    def merged(w: Window): Map[Long, Long] = {
      val forest = new Forest(plan, agg)
      val i = forest.nodes.indexOf(w)
      val sum = mutable.LongMap.empty[Long]
      panes.result().foreach { case (_, ps) =>
        forest.sweep(ps)
        val out = forest.out(i)
        (0 until out.n).foreach(j => sum.update(out.start(j), sum.getOrElse(out.start(j), 0L) + out.items(j)))
      }
      sum.toMap
    }
  }

  /** Spans `[start, start + len)` in arrays, sorted by start: the state's
    * value and count of each, and the items merged into it. Grown on demand
    * and reused from key to key.
    */
  private final class Spans {
    var n = 0
    var start = new Array[Long](16)
    var value = new Array[Double](16)
    var count = new Array[Long](16)
    var items = new Array[Long](16)

    def add(a: Long, v: Double, c: Long, it: Long): Unit = {
      if (n == start.length) {
        start = java.util.Arrays.copyOf(start, 2 * n); value = java.util.Arrays.copyOf(value, 2 * n)
        count = java.util.Arrays.copyOf(count, 2 * n); items = java.util.Arrays.copyOf(items, 2 * n)
      }
      start(n) = a; value(n) = v; count(n) = c; items(n) = it
      n += 1
    }
  }

  /** One key's forest: the instances of every node, in `plan.topological`
    * order, after `sweep`.
    */
  private final class Forest(plan: WcgPlan, agg: AggSpec) {
    val nodes: Vector[Window] = plan.topological
    private val window = nodes.toArray
    private val parent = nodes.map(w => plan.parent(w).fold(-1)(nodes.indexOf)).toArray
    private val user = plan.userWindows.map(nodes.indexOf).toArray
    val out: Array[Spans] = Array.fill(nodes.size)(new Spans)

    /** Sweeps every node over one key's panes. */
    def sweep(panes: Panes): Unit = {
      var i = 0
      while (i < window.length) {
        if (parent(i) < 0)
          sweepNode(window(i), panes.length, panes.start.length, panes.start, panes.value, panes.count,
            panes.count, out(i))
        else {
          val in = out(parent(i))
          sweepNode(window(i), window(parent(i)).r, in.n, in.start, in.value, in.count, null, out(i))
        }
        i += 1
      }
    }

    /** Sweeps `w` over `n` spans of length `len`, sorted by start, into
      * `to`. Span `j` merges its state into instances `lo..hi` of `w`; `lo`
      * and `hi` never decrease with `j`, so instances `lo..last` are the
      * last ones in `to`, and `last + 1..hi` are new. `items` holds each
      * span's items; null counts one per span.
      */
    private def sweepNode(w: Window, len: Long, n: Int, start: Array[Long], value: Array[Double],
                          count: Array[Long], items: Array[Long], to: Spans): Unit = {
      to.n = 0
      var last = -1L
      var j = 0
      while (j < n) {
        val u = start(j)
        val lo = math.max(0L, -Math.floorDiv(w.r - u - len, w.s))
        val hi = Math.floorDiv(u, w.s)
        if (lo <= hi) {
          val it = if (items == null) 1L else items(j)
          var m = lo
          while (m <= last) {
            val x = to.n - 1 - (last - m).toInt
            to.value(x) = agg.g(to.value(x), value(j)); to.count(x) += count(j); to.items(x) += it
            m += 1
          }
          while (m <= hi) { to.add(m * w.s, value(j), count(j), it); m += 1 }
          last = hi
        }
        j += 1
      }
    }

    /** The user windows' rows of the key last swept, made by `make`. */
    def rows[T](k: Long, make: MakeRow[T]): Iterator[T] = new Iterator[T] {
      private var u = 0
      private var j = 0
      def hasNext: Boolean = {
        while (u < user.length && j >= out(user(u)).n) { u += 1; j = 0 }
        u < user.length
      }
      def next(): T = {
        if (!hasNext) throw new NoSuchElementException("no more rows")
        val w = window(user(u))
        val at = out(user(u))
        j += 1
        make(w.r, w.s, k, at.start(j - 1), agg.finish(at.value(j - 1), at.count(j - 1)))
      }
    }
  }
}
