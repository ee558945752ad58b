package repro.baselines

import repro.core.{CandidatePool, Nominee, ProblemInstance, Seed}
import repro.diffusion.LocalDiffusion

/** OPT: exhaustive search over seed groups (Sec. VI-B compares against a
  * brute-force optimum on 100-user samples). Exponential, so the search
  * space is a restricted candidate pool of user-item pairs crossed with
  * all rounds, subsets up to `maxSeeds`, subject to the budget — the same
  * restriction any brute force on this problem needs (documented in
  * DESIGN.md / EXPERIMENTS.md).
  */
object OptBruteForce {

  /** Default pool: the shared [[CandidatePool]] scored by each pair's
    * individual frozen spread, so the exhaustive search sees both the
    * cost-effective and the expensive-hub picks.
    */
  def defaultPool(inst: ProblemInstance, poolSize: Int, frozenHops: Int = 3): Vector[Nominee] =
    CandidatePool.pairs(inst, poolSize, (u, x) => FrozenSpread.sigma(inst, Seq(Nominee(u, x)), frozenHops))

  /** Exhaustive maximization of the dynamic σ over subsets (≤ maxSeeds) of
    * pool × rounds within budget. Returns (best seed group, its σ).
    */
  def run(inst: ProblemInstance, pool: Vector[Nominee], maxSeeds: Int): (Vector[Seed], Double) = {
    val options: Vector[Seed] =
      (for (n <- pool; t <- 1 to inst.T) yield Seed(n.user, n.item, t)).toVector
    var best = (Vector.empty[Seed], 0.0)

    def rec(startIdx: Int, chosen: List[Seed], costSoFar: Double, usedPairs: Set[Nominee]): Unit = {
      if (chosen.nonEmpty) {
        val sig = LocalDiffusion.sigma(inst, chosen)
        if (sig > best._2) best = (chosen.toVector, sig)
      }
      if (chosen.length < maxSeeds) {
        var i = startIdx
        while (i < options.length) {
          val s = options(i)
          val pair = Nominee(s.user, s.item)
          val c = inst.cost(s.user)(s.item)
          // a pair may be seeded at multiple rounds per the paper, but the
          // re-seeding of an already-adopted (u, x) is a no-op; skip it.
          if (!usedPairs.contains(pair) && costSoFar + c <= inst.budget + 1e-9)
            rec(i + 1, s :: chosen, costSoFar + c, usedPairs + pair)
          i += 1
        }
      }
    }
    rec(0, Nil, 0.0, Set.empty)
    best
  }
}
