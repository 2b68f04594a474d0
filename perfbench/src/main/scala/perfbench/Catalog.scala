package perfbench

/** Every metric the benchmark prints, with its unit. `BENCHMARK.json` lists
  * the same names; `run.py` refuses output whose names differ from it.
  *
  * End-to-end metrics exist on every workload: `setup_s`, the CPU seconds
  * of one set-up, and `step_cpu_ms`, the CPU milliseconds of a step (see
  * `Cpu` for why CPU time and not wall-clock time). What a "step" is depends
  * on the workload (see README.md): a micro-batch (stream), one batch per
  * implementation (fig7, geometric mean over the five), an R-TBS batch
  * (local) or one Table-1 cell (quality). Each step counts with its least
  * CPU time over the replays of a run (see `Phases`), and the steps are
  * averaged rather than reported as a median: every workload mixes steps of
  * different cost (Algorithm-2 branches, Table-1 patterns), and a median that
  * falls between two such groups jumps when their shares move slightly.
  *
  * Per-layer metrics come from the traced run. A layer that a workload does
  * not exercise reads 0 there.
  */
object Catalog {

  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "step_cpu_ms" -> "ms",
  )

  /** Spark implementations measured by the listener. */
  val sparkImpls: Seq[String] = Seq("dist_cp", "cent_cp", "kv_cj", "kv_rj", "dttbs")

  /** Implementations driven by `DRTBS` over a `ReservoirOps` backend. */
  val opsImpls: Seq[String] = Seq("dist_cp", "cent_cp", "kv_cj", "kv_rj")

  val sparkFields: Seq[(String, String)] = Seq(
    "jobs" -> "count", "stages" -> "count", "tasks" -> "count",
    "lineage_rdds_max" -> "count", "task_deser_ms" -> "ms", "task_run_ms" -> "ms",
    "shuffle_write_bytes" -> "bytes", "shuffle_read_bytes" -> "bytes", "result_bytes" -> "bytes",
  )

  /** `ReservoirOps` methods, in the order `TimedOps` indexes them. */
  val ops: Seq[String] =
    Seq("batch_size", "append_all", "replace_random", "delete_random", "extract_one", "insert_one")

  val branches: Seq[String] = Seq("saturated", "undershoot", "unsaturated", "overshoot")

  val rngPrimitives: Seq[String] =
    Seq("binomial", "hypergeometric", "mvhg", "sample_indices", "sample_wo_repl")

  /** Implementations whose untraced median batch time is reported per layer. */
  val batchImpls: Seq[String] = sparkImpls ++ Seq("rtbs", "ttbs")

  val perLayer: Seq[(String, String)] =
    sparkImpls.flatMap(i => sparkFields.map { case (f, u) => s"$i.spark.$f" -> u }) ++
      opsImpls.flatMap { i =>
        ops.flatMap { o =>
          Seq(s"$i.ops.$o.ms" -> "ms") ++ (if (o == "batch_size") Nil else Seq(s"$i.ops.$o.calls" -> "count"))
        } :+ (s"$i.drtbs.driver_ms" -> "ms")
      } ++
      Seq("stream.engine_ms" -> "ms", "stream.export_collect_ms" -> "ms", "stream.export_df_ms" -> "ms",
        "baseline.rtbs_batch_ms" -> "ms") ++
      branches.flatMap(b => Seq(s"rtbs.branch.$b.count" -> "count", s"rtbs.branch.$b.ms" -> "ms")) ++
      Seq("rtbs.sample_ms" -> "ms") ++
      rngPrimitives.map(p => s"rng.${p}_ns" -> "ns") ++
      Seq("jvm.gc_ms" -> "ms", "jvm.alloc_mb" -> "MB") ++
      Seq("knn.predict_ms" -> "ms", "quality.sampler_process_ms" -> "ms",
        "quality.sampler_sample_ms" -> "ms", "quality.harness_self_ms" -> "ms") ++
      batchImpls.map(i => s"$i.batch_ms.p50" -> "ms") ++
      Seq("knn.miss_pct" -> "%", "knn.es_pct" -> "%", "quality.sweep_s" -> "s", "trace.overhead_ms" -> "ms")
}
