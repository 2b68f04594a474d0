package perfbench

import org.apache.spark.sql.SparkSession

/** Benchmark entry point:
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * Prints notes (environment, checks, per-implementation figures) and, as
  * the last line, one JSON object with `correct`, `attempted`, `failed` and
  * `metrics`: the end-to-end metrics with `--trace 0`, the per-layer ones
  * with `--trace 1`.
  */
object Main {

  val Workloads: Seq[String] = Seq("stream-dist-cp", "fig7-large-batch", "local-large-n", "quality-knn")

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = opts.getOrElse(k, usage(s"missing --$k"))
    val ctx = Ctx(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1")
    if (!Workloads.contains(ctx.workload)) usage(s"unknown workload ${ctx.workload}")

    val spark = if (ctx.workload == "stream-dist-cp" || ctx.workload == "fig7-large-batch") Some(session()) else None
    val out =
      try ctx.workload match {
        case "stream-dist-cp" => new StreamWorkload(ctx, spark.get).run()
        case "fig7-large-batch" => new Fig7Workload(ctx, spark.get).run()
        case "local-large-n" => new LocalWorkload(ctx).run()
        case "quality-knn" => new QualityWorkload(ctx).run()
      } finally spark.foreach(_.stop())

    println("# " + env(spark))
    out.notes.foreach(n => println("# " + n))
    println("# " + out.checks.summary)
    val names = if (ctx.traced) Catalog.perLayer else Catalog.endToEnd
    val missing = names.map(_._1).filterNot(out.metrics.contains)
    if (!ctx.traced && missing.nonEmpty) sys.error(s"no value for ${missing.mkString(", ")}")
    val metrics = names.map { case (name, unit) =>
      val v = out.metrics.getOrElse(name, 0.0)
      s""""$name": {"value": ${num(v)}, "unit": "$unit"}"""
    }
    println(s"""{"correct": ${out.checks.passed}, "attempted": ${out.attempted}, "failed": ${out.failed}, """ +
      s""""metrics": {${metrics.mkString(", ")}}}""")
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "0" else java.lang.Double.toString(v).replace("E", "e")

  private def usage(msg: String): Nothing = {
    System.err.println(s"$msg\nusage: --workload <${Workloads.mkString("|")}> --seed <n> --seconds <s> --trace <0|1>")
    sys.exit(2)
  }

  /** Local Spark with 4 cores and 4 partitions; scratch files go where the
    * launcher points `java.io.tmpdir`.
    */
  private def session(): SparkSession = {
    val tmp = System.getProperty("java.io.tmpdir")
    val s = SparkSession.builder
      .master("local[4]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.default.parallelism", "4")
      .config("spark.sql.shuffle.partitions", "4")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", s"$tmp/spark-local")
      .config("spark.sql.warehouse.dir", s"$tmp/warehouse")
      .config("spark.sql.streaming.checkpointLocation", s"$tmp/checkpoints")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def env(spark: Option[SparkSession]): String = {
    val rt = Runtime.getRuntime
    val spk = spark.map(s => s"spark=${s.version} master=${s.sparkContext.master}").getOrElse("spark=unused")
    s"env cores=${rt.availableProcessors} heap_max_mb=${rt.maxMemory / 1048576} " +
      s"jdk=${System.getProperty("java.version")} (${System.getProperty("java.vm.name")}) $spk " +
      s"commit=${System.getProperty("perfbench.commit", "unknown")} sources=${System.getProperty("perfbench.sources", "unknown")}"
  }
}
