package repro.diffusion

import repro.TestInstances
import repro.core.{ProblemInstance, Seed}

/** Fixed campaigns whose end states are pinned in
  * `src/test/resources/golden/local-diffusion.tsv`, so any rewrite of the
  * mean-field kernel must reproduce a, w, steps, σ and π of the reference
  * kernel.
  *
  * Each fixture runs frozen and dynamic, unmasked and masked, with one and
  * with three promotions. A line of the file is the case name, a tab, and
  * the space-separated values of [[snapshot]] in `Double.toString` form
  * (which round-trips exactly). `render` prints the whole file.
  */
object KernelGolden {

  private val fixtures: Vector[(String, ProblemInstance, Seq[Seed])] = Vector(
    ("line3", TestInstances.line3, Seq(Seed(0, 0, 1), Seed(0, 1, 2), Seed(1, 1, 3))),
    ("random3", TestInstances.random(3L),
      Seq(Seed(0, 0, 1), Seed(1, 1, 2), Seed(2, 2, 1), Seed(5, 3, 3), Seed(4, 0, 2))),
    // denser instance with a substitutable meta-graph and more items
    ("random11", TestInstances.random(11L, nUsers = 30, nItems = 8, nEdges = 120),
      Seq(Seed(0, 0, 1), Seed(3, 5, 1), Seed(7, 2, 2), Seed(8, 7, 3), Seed(12, 1, 2), Seed(2, 6, 3))))

  /** Every (name, instance, seeds, mask) case. The mask drops every third
    * user, seeded ones included, so masked runs also skip inactive seeds.
    */
  def cases: Vector[(String, ProblemInstance, Seq[Seed], Option[Array[Boolean]])] =
    for {
      (name, base, seeds) <- fixtures
      (dynName, dyn) <- Vector("dynamic" -> base, "frozen" -> base.withParams(base.params.frozen))
      t <- Vector(1, 3)
      masked <- Vector(false, true)
    } yield {
      val inst = dyn.withT(t)
      val mask = if (masked) Some(Array.tabulate(inst.nUsers)(_ % 3 != 2)) else None
      val caseSeeds = seeds.map(s => s.copy(t = math.min(s.t, t)))
      (s"$name/$dynName/T$t/${if (masked) "masked" else "all"}", inst, caseSeeds, mask)
    }

  /** steps, σ, π, σ and π counted on the mask (or all users), then a and w
    * row by row.
    */
  def snapshot(inst: ProblemInstance, seeds: Seq[Seed], mask: Option[Array[Boolean]]): Array[Double] = {
    val res = LocalDiffusion.run(inst, seeds, mask)
    Array(
      res.steps.toDouble,
      LocalDiffusion.sigmaOf(inst, res),
      LocalDiffusion.pi(inst, res),
      LocalDiffusion.sigmaOf(inst, res, mask),
      LocalDiffusion.pi(inst, res, mask)) ++ res.a.flatten ++ res.w.flatten
  }

  def render: String =
    cases.map { case (name, inst, seeds, mask) =>
      s"$name\t${snapshot(inst, seeds, mask).mkString(" ")}"
    }.mkString("", "\n", "\n")
}
