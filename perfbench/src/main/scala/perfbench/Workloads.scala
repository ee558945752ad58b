package perfbench

import scala.util.control.NonFatal
import repro.baselines.{BundleGRD, CRGreedy, HAG, OptBruteForce, PS}
import repro.core.{Dysim, Nominee, ProblemInstance, Seed, TMI}
import repro.data.{DatasetConfig, DatasetGen}
import repro.diffusion.LocalDiffusion

/** One algorithm's seed group on one instance, or why there is none. */
final case class Answer(
    algo: String,
    inst: ProblemInstance,
    seeds: Vector[Seed],
    sigma: Double,
    /** OPT's own σ claim, checked against a fresh evaluation. */
    claimedSigma: Option[Double] = None,
    /** The replay's phases, kept for the kernel probes. */
    dysim: Option[Replay.DysimRun] = None,
    error: Option[String] = None) {
  def key: String = f"$algo@b=${inst.budget}%.1f"
}

/** A benchmark workload: the dataset it builds at set-up and the work of
  * one timed iteration (selection, scheduling and final evaluation of every
  * algorithm it runs). Untraced iterations call the program's public entry
  * points; traced ones call the same phases through [[Replay]] and spans.
  */
abstract class Workload(val name: String) {
  def dataset: DatasetConfig
  def iterate(inst: ProblemInstance, tr: Tracer): Vector[Answer]

  /** Untimed iteration that warms the JIT on the same code paths. */
  def warmUp(inst: ProblemInstance): Vector[Answer] = iterate(inst.withBudget(warmUpBudget), Tracer.off)
  def warmUpBudget: Double
}

object Workload {

  /** Mixes a data seed into a dataset seed (a SplitMix64 step per unit of
    * seed); seed 0 keeps the dataset exactly as the program defines it.
    */
  def mix(base: Long, seed: Long): Long = base + seed * 0x9E3779B97F4A7C15L

  def seeded(cfg: DatasetConfig, seed: Long): DatasetConfig =
    cfg.copy(
      socialSeed = mix(cfg.socialSeed, seed),
      prefSeed = mix(cfg.prefSeed, seed),
      kg = cfg.kg.copy(seed = mix(cfg.kg.seed, seed)))

  val all: Vector[Workload] = Vector(DysimAmazon, BaselinesAmazon, OptSmall)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name' (one of ${all.map(_.name).mkString(", ")}, all)"))

  /** Runs one algorithm; an exception becomes a failed answer. */
  def attempt(algo: String, inst: ProblemInstance, tr: Tracer)(seeds: => Option[Vector[Seed]]): Answer =
    try {
      seeds match {
        case Some(s) => Answer(algo, inst, s, evaluate(inst, s, tr))
        case None    => Answer(algo, inst, Vector.empty, Double.NaN, error = Some("returned no seed group"))
      }
    } catch { case NonFatal(e) => Answer(algo, inst, Vector.empty, Double.NaN, error = Some(e.toString)) }

  def evaluate(inst: ProblemInstance, seeds: Seq[Seed], tr: Tracer): Double =
    tr.span("eval.LocalDiffusion.sigma")(LocalDiffusion.sigma(inst, seeds))

  def dysim(inst: ProblemInstance, cfg: TMI.Config, tr: Tracer): Answer =
    if (!tr.enabled) attempt("Dysim", inst, tr)(Some(Dysim.run(inst, cfg)))
    else
      try {
        val run = Replay.dysim(inst, cfg, tr)
        Answer("Dysim", inst, run.seeds, evaluate(inst, run.seeds, tr), dysim = Some(run))
      } catch { case NonFatal(e) => Answer("Dysim", inst, Vector.empty, Double.NaN, error = Some(e.toString)) }

  /** The brute-force OPT over its default pool; its σ claim is checked. */
  def opt(inst: ProblemInstance, poolSize: Int, maxSeeds: Int, tr: Tracer): Answer =
    try {
      val pool = tr.span("baselines.OptBruteForce.defaultPool")(OptBruteForce.defaultPool(inst, poolSize))
      val (seeds, sigma) = tr.span("baselines.OptBruteForce.run")(OptBruteForce.run(inst, pool, maxSeeds))
      Answer("OPT", inst, seeds, sigma, claimedSigma = Some(sigma))
    } catch { case NonFatal(e) => Answer("OPT", inst, Vector.empty, Double.NaN, error = Some(e.toString)) }

  /** BundleGRD, HAG and PS, each scheduled by CR-Greedy. HAG runs without
    * a wall-clock deadline so that no answer depends on machine speed.
    */
  def baselines(inst: ProblemInstance, maxCandidates: Int, tr: Tracer): Vector[Answer] = {
    def schedule(algo: String, pairs: Vector[Nominee]): Vector[Seed] = {
      val seeds = tr.span(s"baselines.CRGreedy.schedule.$algo")(CRGreedy.schedule(inst, pairs))
      tr.count(s"baselines.CRGreedy.schedule.$algo.pairs", pairs.length)
      tr.count(s"baselines.CRGreedy.schedule.$algo.seeds", seeds.length)
      seeds
    }
    def traced(algo: String)(select: => Option[Vector[Nominee]]): Option[Vector[Seed]] =
      tr.span(s"baselines.$algo.selectPairs")(select).map(schedule(algo, _))
    if (!tr.enabled)
      Vector(
        attempt("BundleGRD", inst, tr)(Some(BundleGRD.run(inst, maxCandidates))),
        attempt("HAG", inst, tr)(HAG.run(inst, maxCandidates, timeoutMs = Long.MaxValue)),
        attempt("PS", inst, tr)(Some(PS.run(inst, maxCandidates))))
    else
      Vector(
        attempt("BundleGRD", inst, tr)(traced("BundleGRD")(Some(BundleGRD.selectPairs(inst, maxCandidates)))),
        attempt("HAG", inst, tr)(traced("HAG")(HAG.selectPairs(inst, maxCandidates, timeoutMs = Long.MaxValue))),
        attempt("PS", inst, tr)(traced("PS")(Some(PS.selectPairs(inst, maxCandidates)))))
  }

  /** The paper's algorithm on the default `RunDysim` configuration. */
  object DysimAmazon extends Workload("dysim-amazon") {
    def dataset: DatasetConfig = DatasetGen.amazonLite(budget = 10, t = 5)
    def iterate(inst: ProblemInstance, tr: Tracer): Vector[Answer] =
      Vector(dysim(inst, TMI.Config(maxCandidates = 200), tr))
    // a warm-up at a smaller budget left the first timed iteration 4-15% slower
    def warmUpBudget: Double = 10
  }

  /** The paper's baselines on the same instance as [[DysimAmazon]]. */
  object BaselinesAmazon extends Workload("baselines-amazon") {
    def dataset: DatasetConfig = DatasetGen.amazonLite(budget = 5, t = 5)
    def iterate(inst: ProblemInstance, tr: Tracer): Vector[Answer] = baselines(inst, 200, tr)
    def warmUpBudget: Double = 2
  }

  /** The T-5a sweep: every algorithm and the brute-force OPT on the
    * 100-user sample, at each budget.
    */
  object OptSmall extends Workload("opt-small") {
    val budgets: Vector[Double] = Vector(2.0, 3.0, 4.0, 5.0)
    def warmUpBudget: Double = 4
    def dataset: DatasetConfig = DatasetGen.amazonSmall(t = 3)
    def iterate(base: ProblemInstance, tr: Tracer): Vector[Answer] = sweep(base, budgets, tr)
    override def warmUp(base: ProblemInstance): Vector[Answer] = sweep(base, Vector(warmUpBudget), Tracer.off)

    private def sweep(base: ProblemInstance, bs: Vector[Double], tr: Tracer): Vector[Answer] = bs.flatMap { b =>
      val inst = base.withBudget(b)
      opt(inst, poolSize = 12, maxSeeds = 4, tr) +: dysim(inst, TMI.Config(maxCandidates = 30), tr) +:
        baselines(inst, 30, tr)
    }
  }
}
