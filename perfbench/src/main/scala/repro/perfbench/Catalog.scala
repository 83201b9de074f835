package repro.perfbench

/** Every metric the benchmark reports, with its unit. An untraced run
  * prints each end-to-end metric; a traced run prints each per-layer metric,
  * as 0 where the workload does not measure it: the streaming layer only in
  * batch-tumbling, the planner sweep only in batch-hopping.
  */
object Catalog {
  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "fw_speedup" -> "x",
    "fw_cost_ratio" -> "ratio",
  )

  /** Span name prefixes: the layers the benchmark calls into. */
  val layers: Seq[String] = Seq("core", "exec", "stream", "gen")

  val plans: Seq[String] = BatchWorkload.Plans

  val perLayer: Seq[(String, String)] =
    Seq("session", "gen", "warmup").map(k => s"setup.${k}_s" -> "s") ++
      Seq("core.alg1_ms" -> "ms", "core.alg2_ms" -> "ms", "core.plan_nodes" -> "count",
        "core.factor_windows" -> "count") ++
      plans.map(p => s"core.model_cost.$p" -> "count") ++
      Seq("core.model_speedup" -> "x") ++
      Seq("core.sweep.cases" -> "count", "core.sweep.not_footnote4" -> "count",
        "core.failed_not_integral" -> "count", "core.alg2_ms.unit_s" -> "ms",
        "core.alg2_ms.unit_ms" -> "ms", "core.sweep.plan_p50_ms" -> "ms",
        "core.sweep.plan_tail_ms" -> "ms", "core.sweep.plan_tail_pct" -> "%",
        "core.sweep.fw_cost_ratio" -> "ratio") ++
      plans.flatMap(p => Seq(
        s"exec.query_s.$p" -> "s",
        s"exec.shuffles.$p" -> "count",
        s"exec.reused_exchanges.$p" -> "count",
        s"exec.rows_in.$p" -> "count",
        s"exec.model_rows.$p" -> "count",
        s"exec.node_s_total.$p" -> "s",
        s"exec.shuffle_mb.$p" -> "MB",
        s"exec.task_cpu_s.$p" -> "s",
        s"exec.gc_s.$p" -> "s",
        s"exec.spill_mb.$p" -> "MB",
        s"exec.stages.$p" -> "count",
        s"exec.tasks.$p" -> "count",
        s"exec.core_busy_frac.$p" -> "ratio")) ++
      Seq("exec.cache_mb" -> "MB") ++
      Seq(
        "stream.query_s.bl" -> "s",
        "stream.query_s.wcgfw" -> "s",
        "stream.queries" -> "count",
        "stream.source_reads" -> "ratio",
        "stream.state_ops" -> "count",
        "stream.state_rows_total" -> "count",
        "stream.state_rows_updated" -> "count",
        "stream.state_mem_mb" -> "MB",
        "stream.rows_dropped_by_watermark" -> "count",
        "stream.op_ms.addBatch" -> "ms",
        "stream.op_ms.walCommit" -> "ms",
        "stream.op_ms.triggerExecution" -> "ms",
        "stream.events_per_s" -> "1/s") ++
      Seq("trace.query_s" -> "s", "trace.overhead_s" -> "s", "trace.spans" -> "count") ++
      layers.map(l => s"trace.self_s.$l" -> "s")

  /** The metrics a run prints, in catalog order: per-layer metrics the
    * workload does not have are 0. Fails on a metric outside the catalog,
    * on a wrong unit, and on a missing end-to-end metric.
    */
  def complete(m: Metrics, traced: Boolean): Metrics = {
    val want = if (traced) perLayer else endToEnd
    val extra = m.names.filterNot(want.map(_._1).contains)
    require(extra.isEmpty, s"metrics not in the catalog: ${extra.mkString(", ")}")
    val out = new Metrics
    want.foreach { case (name, unit) =>
      m.unit(name).foreach(u => require(u == unit, s"metric $name has unit $u, expected $unit"))
      require(traced || m.get(name).isDefined, s"end-to-end metric $name missing")
      out.put(name, m.get(name).getOrElse(0.0), unit)
    }
    out
  }
}
