package perfbench

import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Seed, TMI}
import repro.data.{DatasetGen, InstanceBuilder}
import repro.diffusion.LocalDiffusion

/** Smoke test of the benchmark's own code on a tiny workload: every metric
  * named in BENCHMARK.json is emitted with its unit, and the output checks
  * run and catch broken answers.
  */
class SmokeSpec extends AnyFunSuite {

  /** OPT, Dysim and the three baselines on a 40-user instance. */
  object Tiny extends Workload("tiny") {
    def dataset = DatasetGen.amazonSmall(budget = 3, t = 2).copy(name = "tiny", nUsers = 40, nEdges = 160)
    def warmUpBudget: Double = 2
    def iterate(inst: repro.core.ProblemInstance, tr: Tracer): Vector[Answer] =
      Workload.opt(inst, poolSize = 4, maxSeeds = 2, tr) +:
        Workload.dysim(inst, TMI.Config(maxCandidates = 10), tr) +:
        Workload.baselines(inst, 10, tr)
  }

  private val declared = {
    val file = Seq(Paths.get("..", "BENCHMARK.json"), Paths.get("BENCHMARK.json")).find(Files.exists(_)).get
    new com.fasterxml.jackson.databind.ObjectMapper().readTree(file.toFile)
  }
  private def declaredMetrics(kind: String): Map[String, (String, String)] =
    declared.get(kind).elements.asScala.map(m => m.get("name").asText -> (m.get("unit").asText, m.get("better").asText)).toMap

  private def opts(trace: Boolean) = Main.Opts("tiny", seed = 3, dataSeed = 0, seconds = 0, trace = trace)

  test("an untraced run emits every end-to-end metric with its unit, and nothing fails") {
    val r = Bench.run(Tiny, opts(trace = false))
    assert(r.metrics.map { case (n, m) => n -> m.unit }.toMap == declaredMetrics("end_to_end").view.mapValues(_._1).toMap)
    assert(r.metrics.forall { case (_, m) => m.value.isFinite && m.value > 0.0 })
    assert(r.failed == 0)
    assert(r.attempted >= 10) // warm-up and one timed iteration of five algorithms
  }

  test("a traced run emits every per-layer metric with its unit, and its replays match the program") {
    val r = Bench.run(Tiny, opts(trace = true))
    val got = r.metrics.map { case (n, m) => n -> m.unit }.toMap
    assert(got == declaredMetrics("per_layer").view.mapValues(_._1).toMap)
    assert(PerLayer.all.map(d => d.name -> (d.unit, d.better)).toMap == declaredMetrics("per_layer"))
    assert(r.failed == 0) // the set-up and Dysim replays gave the program's own answers
    val v = r.metrics.toMap.view.mapValues(_.value)
    Seq("sigma.OPT", "sigma.Dysim", "core.TMI.nominees", "core.TDSI.assignTimings.calls",
      "baselines.CRGreedy.schedule.BundleGRD.ms", "diffusion.LocalDiffusion.run.steps", "kg.RelevanceEngine.collectMatrices.ms")
      .foreach(k => assert(v(k) > 0.0, k))
  }

  test("the checks catch broken answers") {
    val inst = InstanceBuilder.fromParts(Tiny.dataset, Seq((0, 1), (1, 2), (2, 0)), Vector.fill(6)(Array.fill(8, 8)(0.0)))
    val good = Seed(0, 1, 1)
    def answer(seeds: Vector[Seed]) = Answer("X", inst, seeds, LocalDiffusion.sigma(inst, seeds))
    val ok = answer(Vector(good))
    assert(Checks.answer(ok).isEmpty)
    assert(Checks.sameAs(ok, ok).isEmpty)
    val expensive = (0 until inst.nUsers).flatMap(u => (0 until inst.nItems).map(x => Seed(u, x, 1))).toVector
    assert(Checks.answer(answer(expensive)).exists(_.contains("exceeds budget")))
    assert(Checks.answer(ok.copy(seeds = Vector(Seed(0, 1, 3)))).exists(_.contains("round")))
    assert(Checks.answer(ok.copy(seeds = Vector(Seed(40, 1, 1)))).exists(_.contains("out of range")))
    assert(Checks.answer(ok.copy(sigma = Double.NaN)).exists(_.contains("not finite")))
    assert(Checks.answer(ok.copy(claimedSigma = Some(ok.sigma + 1))).exists(_.contains("fresh evaluation")))
    assert(Checks.answer(ok.copy(error = Some("returned no seed group"))).nonEmpty)
    assert(Checks.sameAs(ok, answer(Vector(Seed(1, 1, 1)))).exists(_.contains("differ")))
    assert(Checks.sameInstance(inst, inst.withBudget(4)).nonEmpty)
  }

  test("seed 0 keeps the datasets; other seeds rename users and items or draw new data") {
    val cfg = Tiny.dataset
    assert(Workload.seeded(cfg, 0) == cfg)
    val other = Workload.seeded(cfg, 5)
    assert(other.socialSeed != cfg.socialSeed && other.prefSeed != cfg.prefSeed && other.kg.seed != cfg.kg.seed)

    val built = InstanceBuilder.fromParts(cfg, Seq((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)),
      Vector.tabulate(6)(m => Array.tabulate(8, 8)((x, y) => if (x != y && (x + y + m) % 3 == 0) 0.5 else 0.0)))
    assert(Relabel(built, 0) eq built)
    val renamed = new Relabel(7, built.nUsers, built.nItems)
    val seeds = Vector(Seed(0, 1, 1), Seed(2, 5, 2))
    val a = LocalDiffusion.sigma(built, seeds)
    val b = LocalDiffusion.sigma(renamed(built), seeds.map(renamed(_)))
    assert(a > 0.0 && math.abs(a - b) <= 1e-9 * a)
  }
}
