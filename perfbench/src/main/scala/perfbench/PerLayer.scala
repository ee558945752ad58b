package perfbench

/** The per-layer metrics of a traced run, and for each the end-to-end
  * metric and workload it should move. `.ms` is inclusive time, `.self_ms`
  * excludes child spans, `.calls` counts spans; the other names count work
  * or report σ. A metric a workload does not exercise reads 0 there.
  */
object PerLayer {

  final case class Def(name: String, unit: String, better: String, moves: String)

  private val setup = "setup_s on every workload"
  private val dysimRun = "run_s on dysim-amazon"
  private val baselineRun = "run_s on baselines-amazon and opt-small"

  private def time(name: String, moves: String) = Def(name, "ms", "lower", moves)
  private def count(name: String, moves: String) = Def(name, "count", "lower", moves)
  private def spans(name: String, moves: String) = Vector(
    time(s"$name.ms", moves), time(s"$name.self_ms", moves), count(s"$name.calls", moves))

  val all: Vector[Def] = Vector(
    // data, kg, social: the Spark set-up
    time("data.SparkSession.ms", setup),
    time("social.SocialGen.edges.ms", setup),
    time("kg.RelevanceEngine.collectMatrices.ms", setup),
    time("data.InstanceBuilder.fromParts.ms", setup),
    // core: Dysim's phases
    time("core.Dysim.run.ms", dysimRun),
    time("core.Dysim.run.self_ms", dysimRun),
    time("core.TMI.selectNominees.ms", dysimRun),
    time("core.TMI.clusterNominees.ms", dysimRun),
    time("core.TMI.identifyMarkets.ms", dysimRun),
    time("core.TMI.groupAndPrioritize.ms", dysimRun)) ++
    spans("core.Dysim.marketRelevance", dysimRun) ++
    spans("core.DRE.bestItem", dysimRun) ++
    spans("core.TDSI.assignTimings", dysimRun) ++
    Vector(
      count("core.TMI.nominees", dysimRun),
      count("core.TMI.markets", dysimRun),
      count("core.TMI.market_users", dysimRun),
      count("core.TMI.groups", dysimRun)) ++
    // baselines: selection and CR-Greedy scheduling, OPT
    Vector("BundleGRD", "HAG", "PS").flatMap { a =>
      Vector(
        time(s"baselines.$a.selectPairs.ms", baselineRun),
        time(s"baselines.CRGreedy.schedule.$a.ms", baselineRun),
        count(s"baselines.CRGreedy.schedule.$a.pairs", baselineRun),
        count(s"baselines.CRGreedy.schedule.$a.seeds", baselineRun))
    } ++
    Vector(
      time("baselines.OptBruteForce.defaultPool.ms", "run_s on opt-small"),
      time("baselines.OptBruteForce.run.ms", "run_s on opt-small"),
      // final evaluation of every seed group
      time("eval.LocalDiffusion.sigma.ms", "run_s on every workload"),
      // diffusion kernel probes: single calls on the workload's own seeds
      time("diffusion.LocalDiffusion.run.ms", baselineRun),
      count("diffusion.LocalDiffusion.run.steps", baselineRun),
      time("diffusion.frozen.ms", dysimRun),
      count("diffusion.frozen.steps", dysimRun),
      time("diffusion.TDSI.evalMarket.ms", dysimRun)) ++
    // answers: σ summed over the workload's seed groups of each algorithm
    Vector("OPT", "Dysim", "BundleGRD", "HAG", "PS").map(a =>
      Def(s"sigma.$a", "sigma", "higher", "sigma_sum on the workloads that run it")) ++
    Vector(
      Def("trace.run_s", "s", "lower", "run_s on every workload"),
      Def("trace.overhead_s", "s", "lower", "none: traced run_s minus untraced run_s"))
}
