package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession
import repro.baselines.FrozenSpread
import repro.core.{Seed, TDSI, TMI}
import repro.data.InstanceBuilder
import repro.diffusion.LocalDiffusion

/** Runs one workload (or all of them, in one JVM) and prints every metric
  * by name and unit, then one JSON line:
  * `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
  *
  * Usage: `Main --workload <name|all> [--seed n] [--data-seed n] [--seconds s] [--trace 0|1]`
  *
  *  - `--seed` renames users and items by a seeded permutation ([[Relabel]]);
  *  - `--data-seed` is mixed into the dataset's social, preference and KG
  *    seeds, which draws a different dataset;
  *  - seed 0 of both keeps today's datasets exactly.
  *
  * The load is a closed loop with one caller: the next iteration starts
  * when the previous one has finished. Iterations run on the main thread;
  * Spark runs `local[*]` and is used by the set-up only.
  */
object Main {

  final case class Opts(workload: String, seed: Long, dataSeed: Long, seconds: Double, trace: Boolean)

  /** Set-ups per run; set-up time is their median. */
  val SetupRuns = 3

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"expected --key value, got ${other.mkString(" ")}")
    }.toMap
    val unknown = kv.keySet -- Set("workload", "seed", "data-seed", "seconds", "trace")
    require(unknown.isEmpty, s"unknown options: ${unknown.mkString(", ")}")
    val trace = kv.getOrElse("trace", "0")
    require(trace == "0" || trace == "1", "--trace is 0 or 1")
    Opts(
      workload = kv.getOrElse("workload", throw new IllegalArgumentException("--workload is required")),
      seed = kv.getOrElse("seed", "0").toLong,
      dataSeed = kv.getOrElse("data-seed", "0").toLong,
      seconds = kv.getOrElse("seconds", "10").toDouble,
      trace = trace == "1")
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val workloads = if (opts.workload == "all") Workload.all else Vector(Workload.byName(opts.workload))
    val results =
      try workloads.map(w => w.name -> Bench.run(w, opts))
      catch {
        case e: Throwable =>
          e.printStackTrace()
          Spark.stop()
          sys.exit(1) // no result line: the run did not complete
      }
    Spark.stop()
    val metrics = results.flatMap { case (name, r) =>
      r.metrics.map { case (m, v) => (if (workloads.length == 1) m else s"$name/$m") -> v }
    }
    val attempted = results.map(_._2.attempted).sum
    val failed = results.map(_._2.failed).sum
    val body = metrics.map { case (m, Metric(v, unit)) => s""""$m": {"value": $v, "unit": "$unit"}""" }
    println(s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {${body.mkString(", ")}}}""")
  }
}

final case class Metric(value: Double, unit: String)

/** One SparkSession at a time, restarted for every set-up. */
object Spark {
  private var current: Option[SparkSession] = None

  def start(): SparkSession = {
    stop()
    val s = SparkSession.builder()
      .master("local[*]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    current = Some(s)
    s
  }

  def stop(): Unit = { current.foreach(_.stop()); current = None }
}

object Bench {

  final case class Result(metrics: Vector[(String, Metric)], attempted: Int, failed: Int)

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Highest percentile with at least ten samples beyond it, if any. */
  private def tailPercentile(xs: Seq[Double]): Option[(Int, Double)] = {
    val s = xs.sorted
    val p = Seq(99.9, 99, 95, 90).find(p => s.length * (1 - p / 100) >= 10)
    p.map(p => (p.toInt, s(math.min(s.length - 1, math.ceil(p / 100 * s.length).toInt - 1))))
  }

  /** Heap still in use after a full collection, in MB. */
  private def liveHeapMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  def run(w: Workload, opts: Main.Opts): Result = {
    val cfg = Workload.seeded(w.dataset, opts.dataSeed)
    val lines = mutable.ArrayBuffer.empty[String]
    var attempted = 0
    var failed = 0
    def fail(problems: List[String]): Unit = problems.foreach(p => Console.err.println(s"CHECK FAILED: $p"))

    // ---- set-up: SparkSession start + InstanceBuilder.build, repeated ----
    val setups = (1 to Main.SetupRuns).map { _ =>
      val t0 = System.nanoTime()
      val built = InstanceBuilder.build(Spark.start(), cfg)
      (built, seconds(t0))
    }
    val setupTimes = setups.map(_._2)
    val built = setups.last._1
    val inst = Relabel(built, opts.seed)

    val tr = new Tracer(opts.trace)
    val perLayer = mutable.LinkedHashMap.empty[String, Double]
    if (opts.trace) {
      // traced replay of the set-up, checked against InstanceBuilder.build
      val t = tr.newTrace()
      val replayed = Replay.build(tr.span("data.SparkSession")(Spark.start()), cfg, tr)
      attempted += 1
      val problems = Checks.sameInstance(built, replayed)
      if (problems.nonEmpty) { failed += 1; fail(problems) }
      tr.summary(t).foreach { case (name, tot) => perLayer(s"$name.ms") = tot.ms }
    }
    // the algorithms do not use Spark: stop it so that its threads and state
    // stay out of the timed iterations
    Spark.stop()

    // ---- iterations ------------------------------------------------------
    var reference: Map[String, Answer] = Map.empty
    def check(answers: Vector[Answer]): Unit = answers.foreach { a =>
      attempted += 1
      val problems = Checks.answer(a) ++ reference.get(a.key).toList.flatMap(Checks.sameAs(_, a))
      if (problems.nonEmpty) { failed += 1; fail(problems) }
    }
    val gcMs = mutable.ArrayBuffer.empty[Double]
    def gcTotal(): Double = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum.toDouble
    def iteration(t: Tracer): (Vector[Answer], Double) = {
      val g0 = gcTotal()
      val t0 = System.nanoTime()
      val answers = w.iterate(inst, t)
      val s = seconds(t0)
      gcMs += gcTotal() - g0
      (answers, s)
    }

    val w0 = System.nanoTime()
    check(w.warmUp(inst))
    val warmS = seconds(w0)

    val liveHeap = mutable.ArrayBuffer.empty[Double]
    val untimed = mutable.ArrayBuffer.empty[Double]
    val traced = mutable.ArrayBuffer.empty[Double]
    val tracedLayers = mutable.ArrayBuffer.empty[Map[String, Double]]
    var lastTraced: Vector[Answer] = Vector.empty
    val start = System.nanoTime()
    while (untimed.isEmpty || (opts.trace && traced.isEmpty) || seconds(start) < opts.seconds) {
      val (answers, s) = iteration(Tracer.off)
      untimed += s
      liveHeap += liveHeapMb()
      check(answers)
      if (reference.isEmpty) reference = answers.map(a => a.key -> a).toMap
      if (opts.trace) {
        val id = tr.newTrace()
        val (answers, s) = iteration(tr)
        traced += s
        check(answers)
        lastTraced = answers
        val sums = tr.summary(id)
        tracedLayers += sums.flatMap { case (n, t) =>
          Seq(s"$n.ms" -> t.ms, s"$n.self_ms" -> t.selfMs, s"$n.calls" -> t.calls.toDouble)
        } ++ tr.countsOf(id)
      }
    }
    val heapMb = liveHeap.max

    val runS = median(untimed.toSeq)
    val answers = reference.values.toSeq.sortBy(_.key)
    val sigmaSum = answers.map(_.sigma).sum
    val sigmaBy = answers.groupBy(_.algo).map { case (algo, as) => algo -> as.map(_.sigma).sum }
    lines += f"workload ${w.name}  seed ${opts.seed}  data-seed ${opts.dataSeed}  trace ${if (opts.trace) 1 else 0}"
    lines += f"  setup_s       ${median(setupTimes)}%10.4f s   median of ${setupTimes.length}: ${setupTimes.map(x => f"$x%.3f").mkString(", ")}"
    lines += f"  run_s         $runS%10.4f s   median of ${untimed.length} timed iterations (${untimed.map(x => f"$x%.3f").mkString(", ")}; warm-up ${warmS}%.3f s); " +
      tailPercentile(untimed.toSeq).fold("no percentile has 10 samples beyond it")(p => f"p${p._1} ${p._2}%.4f s")
    lines += f"  live_heap_mb  $heapMb%10.1f MB   max over iterations of the heap in use after a full collection; gc ms per iteration: ${gcMs.map(x => f"$x%.0f").mkString(", ")}"
    lines += f"  failed_ratio  ${failed.toDouble / math.max(1, attempted)}%10.4f     $failed of $attempted operations"
    lines += f"  sigma_sum     $sigmaSum%10.4f sigma"
    Seq("OPT", "Dysim", "BundleGRD", "HAG", "PS").filter(sigmaBy.contains).foreach { a =>
      val n = answers.filter(_.algo == a).map(_.seeds.size).sum
      lines += f"  sigma.$a%-10s ${sigmaBy(a)}%10.4f sigma   $n seeds"
    }

    val metrics = mutable.LinkedHashMap.empty[String, Metric]
    if (!opts.trace) {
      metrics("run_s") = Metric(runS, "s")
      metrics("setup_s") = Metric(median(setupTimes), "s")
      metrics("live_heap_mb") = Metric(heapMb, "MB")
      metrics("sigma_sum") = Metric(sigmaSum, "sigma")
    } else {
      tracedLayers.flatMap(_.keys).distinct.foreach { k =>
        perLayer(k) = median(tracedLayers.map(_.getOrElse(k, 0.0)).toSeq)
      }
      probes(lastTraced, perLayer)
      Seq("OPT", "Dysim", "BundleGRD", "HAG", "PS").foreach(a => perLayer(s"sigma.$a") = sigmaBy.getOrElse(a, 0.0))
      perLayer("trace.run_s") = median(traced.toSeq)
      perLayer("trace.overhead_s") = median(traced.toSeq) - runS
      lines += f"  trace.run_s   ${perLayer("trace.run_s")}%10.4f s   traced, median of ${traced.length}; overhead ${perLayer("trace.overhead_s")}%.4f s"
      PerLayer.all.foreach { case PerLayer.Def(name, unit, _, _) =>
        val v = perLayer.getOrElse(name, 0.0)
        lines += f"  $name%-48s $v%14.4f $unit"
        metrics(name) = Metric(v, unit)
      }
      tr.write(java.nio.file.Paths.get(sys.props.getOrElse("perfbench.out", "target"), "traces", s"${w.name}-seed${opts.seed}.jsonl"))
    }
    lines.foreach(println)
    Result(metrics.toVector, attempted, failed)
  }

  /** Kernel probes: single simulator calls on the workload's own seeds. */
  private def probes(answers: Vector[Answer], out: mutable.Map[String, Double]): Unit = {
    def timed[A](f: => A): (A, Double) = {
      val ts = (1 to 3).map { _ => val t0 = System.nanoTime(); val r = f; (r, (System.nanoTime() - t0) / 1e6) }
      (ts.head._1, median(ts.map(_._2)))
    }
    def add(k: String, v: Double): Unit = out(k) = out.getOrElse(k, 0.0) + v
    answers.filter(_.error.isEmpty).foreach { a =>
      val (res, ms) = timed(LocalDiffusion.run(a.inst, a.seeds))
      add("diffusion.LocalDiffusion.run.ms", ms)
      add("diffusion.LocalDiffusion.run.steps", res.steps)
      a.dysim.foreach { d =>
        val frozen = FrozenSpread.instance(a.inst, TMI.Config().frozenHops)
        val (fres, fms) = timed(LocalDiffusion.run(frozen, d.nominees.map(n => Seed(n.user, n.item, 1))))
        add("diffusion.frozen.ms", fms)
        add("diffusion.frozen.steps", fres.steps)
        if (d.markets.nonEmpty) {
          val largest = d.markets.maxBy(_.users.size)
          add("diffusion.TDSI.evalMarket.ms", timed(TDSI.evalMarket(a.inst, a.seeds, largest.mask(a.inst.nUsers)))._2)
        }
      }
    }
  }
}
