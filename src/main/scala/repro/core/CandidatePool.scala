package repro.core

/** Shared candidate-pool builder: the nominee universe U = V × I is capped
  * for tractability (the paper ran days on a 1 TB server; DESIGN.md
  * Sec. 2). Each affordable pair is scored by a per-pair gain — the cheap
  * [[proxyGain]] for Dysim and the baselines, the individual frozen spread
  * for OPT — and the pool takes the top half by gain '''per cost''' (the
  * cost-effective regime Dysim's MCP lives in) plus the top half by raw
  * gain (the expensive-hub regime the raw-gain baselines live in).
  */
object CandidatePool {

  /** Proxy for the individual frozen spread of seeding (u, x):
    * importance · preference · (1 + out-degree).
    */
  def proxyGain(inst: ProblemInstance, u: Int, x: Int): Double =
    inst.importance(x) * inst.basePref(u)(x) * (1.0 + inst.outDegree(u))

  /** Up to `maxCandidates` affordable pairs, both regimes represented;
    * ties break by the other score, then by user and item.
    */
  def pairs(inst: ProblemInstance, maxCandidates: Int, gain: (Int, Int) => Double): Vector[Nominee] = {
    require(maxCandidates >= 1, "need a positive pool cap")
    val scored = for {
      u <- (0 until inst.nUsers).toVector
      x <- 0 until inst.nItems
      if inst.cost(u)(x) <= inst.budget + 1e-9
    } yield {
      val g = gain(u, x)
      (Nominee(u, x), g, g / inst.cost(u)(x))
    }
    val byRatio = scored.sortBy(s => (-s._3, -s._2, s._1.user, s._1.item)).map(_._1)
    val byGain = scored.sortBy(s => (-s._2, -s._3, s._1.user, s._1.item)).map(_._1)
    (byRatio.take((maxCandidates + 1) / 2) ++ byGain).distinct.take(maxCandidates)
  }
}
