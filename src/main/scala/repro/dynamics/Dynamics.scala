package repro.dynamics

import repro.core.ProblemInstance

/** The closed-form factor model of DESIGN.md Sec. 4 — the four dynamic
  * factors of the paper (relevance measurement, preference estimation,
  * influence learning, item associations) as pure functions.
  *
  * Both diffusion engines ([[repro.diffusion.LocalDiffusion]] and
  * [[repro.diffusion.SparkDiffusion]]) implement exactly these formulas;
  * the parity test suite keeps them one system. Sums over meta-graph pairs
  * read the instance's relevance CSR ([[ProblemInstance.relevance]]).
  *
  * Each rate set to 0 makes its factor constant: η = 0 keeps the
  * weightings at what [[updateUserWeights]] returns for any `a`, β = 0
  * keeps P_pref at the clamped base preference whatever [[prefContrib]]
  * is, and γ = 0 keeps P_act at its capped base whatever [[sim]] is. The
  * engines skip those computations then (the frozen fast path), with
  * identical results.
  */
object Dynamics {

  /** Initial per-user weightings: uniform within the complementary class
    * and within the substitutable class (so each class sums to 1).
    */
  def initUserWeights(inst: ProblemInstance): Array[Double] = {
    val w = new Array[Double](inst.nMeta)
    if (inst.cMeta.nonEmpty) inst.cMeta.foreach(m => w(m) = 1.0 / inst.cMeta.size)
    if (inst.sMeta.nonEmpty) inst.sMeta.foreach(m => w(m) = 1.0 / inst.sMeta.size)
    w
  }

  /** Evidence for meta-graph m from a user's (expected) adoption vector:
    * e(u,m) = Σ_{x<y} a_x · a_y · s(x,y|m).
    */
  def evidence(inst: ProblemInstance, a: Array[Double], m: Int): Double = {
    val r = inst.relevance(m)
    var e = 0.0
    var i = 0
    while (i < r.s.length) {
      e += a(r.x(i)) * a(r.y(i)) * r.s(i)
      i += 1
    }
    e
  }

  /** Updated weightings: W(u,m) ∝ w0 + η·e(u,m), normalized within each
    * relationship class. With η = 0 (frozen params) this returns the
    * uniform initial weights.
    */
  def updateUserWeights(inst: ProblemInstance, a: Array[Double], out: Array[Double]): Unit = {
    val p = inst.params
    var cSum = 0.0
    var sSum = 0.0
    inst.cMeta.foreach { m => out(m) = p.w0 + p.eta * evidence(inst, a, m); cSum += out(m) }
    inst.sMeta.foreach { m => out(m) = p.w0 + p.eta * evidence(inst, a, m); sSum += out(m) }
    if (cSum > 0.0) inst.cMeta.foreach(m => out(m) /= cSum)
    if (sSum > 0.0) inst.sMeta.foreach(m => out(m) /= sSum)
  }

  /** Cross-elasticity contribution per item:
    * contrib(y) = Σ_x a_x · (r^C(u,x,y) − r^S(u,x,y))
    *            = Σ_m sign(m) · W(u,m) · (S_m · a)(y),
    * computed over the sparse pair lists, where personal relevance is
    * r^C(u,x,y) = Σ_{m∈C} W(u,m)·s(x,y|m) and r^S likewise over S.
    */
  def prefContrib(inst: ProblemInstance, w: Array[Double], a: Array[Double]): Array[Double] = {
    val contrib = new Array[Double](inst.nItems)
    prefContribInto(inst, w, a, contrib)
    contrib
  }

  /** [[prefContrib]] written into `out` (overwritten, length nItems). */
  def prefContribInto(inst: ProblemInstance, w: Array[Double], a: Array[Double], out: Array[Double]): Unit = {
    java.util.Arrays.fill(out, 0.0)
    var m = 0
    while (m < inst.nMeta) {
      val wm = w(m) * inst.metaKinds(m).sign
      if (wm != 0.0) {
        val r = inst.relevance(m)
        var i = 0
        while (i < r.s.length) {
          val x = r.x(i)
          val y = r.y(i)
          val s = r.s(i)
          out(y) += wm * a(x) * s
          out(x) += wm * a(y) * s
          i += 1
        }
      }
      m += 1
    }
  }

  /** Dynamic preference P_pref(u,y) = clamp01(basePref + β·contrib(y)). */
  def pref(inst: ProblemInstance, basePref: Double, contrib: Double): Double =
    math.min(1.0, math.max(0.0, basePref + inst.params.beta * contrib))

  /** Expected-Jaccard similarity of two adoption vectors:
    * sim = ⟨a_u, a_v⟩ / (‖a_u‖₁ + ‖a_v‖₁ − ⟨a_u, a_v⟩ + ε).
    */
  def sim(aU: Array[Double], aV: Array[Double], sumU: Double, sumV: Double): Double = {
    var dot = 0.0
    var i = 0
    while (i < aU.length) { dot += aU(i) * aV(i); i += 1 }
    val denom = sumU + sumV - dot + 1e-9
    if (denom <= 0.0) 0.0 else dot / denom
  }

  /** Dynamic influence strength P_act(u,v) = min(actCap, base + γ·sim). */
  def act(inst: ProblemInstance, base: Double, similarity: Double): Double =
    math.min(inst.params.actCap, base + inst.params.gamma * similarity)
}
