package repro.diffusion

import repro.core.{ProblemInstance, Seed}
import repro.dynamics.Dynamics

/** Final state of a campaign simulation.
  *
  * @param a     expected adoption probability per (user, item)
  * @param w     per-user meta-graph weightings at the end of the campaign
  * @param steps total mean-field steps executed across all promotions
  */
final case class DiffusionResult(a: Array[Array[Double]], w: Array[Array[Double]], steps: Int)

/** Driver-local mean-field campaign simulator — the reference
  * implementation of the diffusion process of Sec. III with the dynamic
  * factors of Sec. V-A (formulas in [[repro.dynamics.Dynamics]]).
  *
  * Semantics per promotion t = 1..T:
  *  - at ζ_t = 0 the round's seeds adopt deterministically (a := 1) and
  *    perceptions update;
  *  - at each step ζ_t ≥ 1, last step's new (expected) adoptions send
  *    promotions over social arcs with the dynamic P_act, adoption deltas
  *    are (1−a)·q·P_pref, item associations add (1−a)·q·P_pref(x)·r^C·scale
  *    extra deltas, then weightings / preferences / influence update;
  *  - a promotion stops when no delta exceeds `params.eps` or after
  *    `params.maxSteps` steps.
  *
  * `mask` (if given) restricts the diffusion to the induced subgraph of the
  * masked users (used for per-target-market evaluations σ^τ in TDSI); every
  * step then visits the masked users only. A rate of 0 in `params` (all
  * three for the frozen spread f) skips the work of its factor, which is
  * constant then (see [[repro.dynamics.Dynamics]]); the result is the same
  * to the last bit.
  */
object LocalDiffusion {

  def run(inst: ProblemInstance, seeds: Seq[Seed], mask: Option[Array[Boolean]] = None): DiffusionResult = {
    seeds.foreach { s =>
      require(s.t <= inst.T, s"seed round ${s.t} exceeds T=${inst.T}")
      require(s.user >= 0 && s.user < inst.nUsers && s.item >= 0 && s.item < inst.nItems, s"bad seed $s")
    }
    val n = inst.nUsers
    val nI = inst.nItems
    val p = inst.params
    // a rate of 0 makes its factor constant (see Dynamics): skip its work
    val dynAct = p.gamma != 0.0
    val dynPref = p.beta != 0.0
    val frozenW =
      if (p.eta != 0.0) null
      else { val fw = new Array[Double](inst.nMeta); Dynamics.updateUserWeights(inst, new Array[Double](nI), fw); fw }
    val cMeta = inst.cMeta.toArray
    val cRel = cMeta.map(inst.relevance)

    // the users a masked run diffuses over, ascending; every loop below
    // visits only these
    val users = mask match {
      case Some(mk) => (0 until n).filter(v => mk(v)).toArray
      case None     => Array.range(0, n)
    }

    val a = Array.fill(n)(new Array[Double](nI))
    val w = Array.fill(n)(Dynamics.initUserWeights(inst))
    val sumA = new Array[Double](n)
    val seedsByT = seeds.groupBy(_.t)
    var totalSteps = 0

    // per-user buffers, allocated on first use and reused across steps:
    // last step's applied deltas (items and amounts), the products
    // Π(1 − Δa·P_act), the raw deltas, and the cached preference
    // contribution (valid until the user's adoptions next change)
    val dItem = new Array[Array[Int]](n)
    val dVal = new Array[Array[Double]](n)
    val dCnt = new Array[Int](n)
    val notProm = new Array[Array[Double]](n)
    val raw = new Array[Array[Double]](n)
    val contrib = new Array[Array[Double]](n)
    val contribOk = new Array[Boolean](n)
    // users with deltas (dCnt > 0) and users with raw deltas this step
    val deltaUsers = new Array[Int](users.length)
    var nDelta = 0
    val rawUsers = new Array[Int](users.length)
    val hasRaw = new Array[Boolean](n)
    var nRaw = 0

    def clearDeltas(): Unit = {
      var k = 0
      while (k < nDelta) { dCnt(deltaUsers(k)) = 0; k += 1 }
      nDelta = 0
    }

    def recordDelta(v: Int, x: Int, d: Double): Unit = {
      if (dItem(v) == null) { dItem(v) = new Array[Int](nI); dVal(v) = new Array[Double](nI) }
      if (dCnt(v) == 0) { deltaUsers(nDelta) = v; nDelta += 1 }
      dItem(v)(dCnt(v)) = x
      dVal(v)(dCnt(v)) = d
      dCnt(v) += 1
    }

    def rawRow(v: Int): Array[Double] = {
      if (raw(v) == null) raw(v) = new Array[Double](nI)
      else java.util.Arrays.fill(raw(v), 0.0)
      hasRaw(v) = true
      rawUsers(nRaw) = v
      nRaw += 1
      raw(v)
    }

    /** Applies the raw deltas of `rawUsers` (capped at 1 − a), records them
      * as the new deltas, updates touched users' weightings and returns
      * the largest delta.
      */
    def applyDeltas(): Double = {
      clearDeltas()
      var maxD = 0.0
      var k = 0
      while (k < nRaw) {
        val v = rawUsers(k)
        val rv = raw(v)
        val av = a(v)
        var x = 0
        while (x < nI) {
          if (rv(x) > 0.0) {
            val d = math.min(rv(x), 1.0 - av(x))
            if (d > 0.0) {
              av(x) += d
              sumA(v) += d
              recordDelta(v, x, d)
              if (d > maxD) maxD = d
            }
          }
          x += 1
        }
        if (dCnt(v) > 0) {
          if (frozenW == null) Dynamics.updateUserWeights(inst, av, w(v))
          else System.arraycopy(frozenW, 0, w(v), 0, frozenW.length)
          contribOk(v) = false
        }
        hasRaw(v) = false
        k += 1
      }
      nRaw = 0
      maxD
    }

    var t = 1
    while (t <= inst.T) {
      // ζ_t = 0: seed adoptions
      seedsByT.getOrElse(t, Nil).foreach { s =>
        if (mask.forall(_(s.user))) {
          val v = s.user
          val rv = if (hasRaw(v)) raw(v) else rawRow(v)
          rv(s.item) = math.max(rv(s.item), 1.0 - a(v)(s.item))
        }
      }
      val seedMax = applyDeltas()
      // each promotion re-diffuses from every current adopter (multi-round
      // IM semantics of [5], which the paper follows): the round's frontier
      // carries the full adoption mass (seeds now included in `a`), so
      // later rounds retry the influence attempts that failed earlier
      clearDeltas()
      users.foreach { v =>
        var x = 0
        while (x < nI) {
          if (a(v)(x) > 0.0) recordDelta(v, x, a(v)(x))
          x += 1
        }
      }
      var moving = seedMax > 0.0 || nDelta > 0

      var step = 0
      while (moving && step < p.maxSteps) {
        step += 1
        totalSteps += 1
        // 1 - Π(1 - Δa(u',x)·P_act(u',v)) accumulated multiplicatively
        var k = 0
        while (k < users.length) {
          val v = users(k)
          val nbrs = inst.inNbr(v)
          var np: Array[Double] = null
          var i = 0
          while (i < nbrs.length) {
            val u = nbrs(i)
            if (dCnt(u) > 0) {
              val actUV = Dynamics.act(inst, inst.inAct(v)(i),
                if (dynAct) Dynamics.sim(a(u), a(v), sumA(u), sumA(v)) else 0.0)
              if (np == null) {
                if (notProm(v) == null) notProm(v) = new Array[Double](nI)
                np = notProm(v)
                java.util.Arrays.fill(np, 1.0)
                rawRow(v) // v receives this step
              }
              val du = dItem(u)
              val dv = dVal(u)
              var j = 0
              while (j < dCnt(u)) { np(du(j)) *= (1.0 - dv(j) * actUV); j += 1 }
            }
            i += 1
          }
          k += 1
        }
        // adoption + extra-adoption deltas
        k = 0
        while (k < nRaw) {
          val v = rawUsers(k)
          val np = notProm(v)
          val rv = raw(v)
          val av = a(v)
          val wv = w(v)
          val cv =
            if (!dynPref) null
            else {
              if (contrib(v) == null) contrib(v) = new Array[Double](nI)
              if (!contribOk(v)) { Dynamics.prefContribInto(inst, wv, av, contrib(v)); contribOk(v) = true }
              contrib(v)
            }
          var x = 0
          while (x < nI) {
            if (np(x) < 1.0) {
              val q = 1.0 - np(x)
              val pPref = Dynamics.pref(inst, inst.basePref(v)(x), if (cv == null) 0.0 else cv(x))
              rv(x) += (1.0 - av(x)) * q * pPref
              // item associations: P_ext = q · P_pref(x) · r^C(v,x,y) · scale,
              // with the total association mass of one promotion event
              // bounded by q · P_pref · scale (the r^C row is normalized to
              // sum <= 1 — DESIGN.md Sec. 4; keeps dense complementary
              // catalogs from exploding super-linearly under bundles)
              val base = q * pPref * p.extraScale
              if (base > 0.0) {
                var rowSum = 0.0
                var c = 0
                while (c < cMeta.length) {
                  val wm = wv(cMeta(c))
                  if (wm > 0.0) {
                    val r = cRel(c)
                    var j = r.rowPtr(x)
                    while (j < r.rowPtr(x + 1)) { rowSum += wm * r.value(j); j += 1 }
                  }
                  c += 1
                }
                val factor = if (rowSum > 1.0) 1.0 / rowSum else 1.0
                c = 0
                while (c < cMeta.length) {
                  val wm = wv(cMeta(c))
                  if (wm > 0.0) {
                    val r = cRel(c)
                    var j = r.rowPtr(x)
                    while (j < r.rowPtr(x + 1)) {
                      val y = r.nbr(j)
                      rv(y) += (1.0 - av(y)) * base * factor * wm * r.value(j)
                      j += 1
                    }
                  }
                  c += 1
                }
              }
            }
            x += 1
          }
          k += 1
        }
        moving = applyDeltas() > p.eps
      }
      t += 1
    }
    DiffusionResult(a, w, totalSteps)
  }

  /** Importance-aware influence σ (Def. 1): Σ_x w_x Σ_v a(v,x), optionally
    * counting only users in `countMask` (σ^τ of Eq. 5).
    */
  def sigmaOf(inst: ProblemInstance, res: DiffusionResult, countMask: Option[Array[Boolean]] = None): Double = {
    var acc = 0.0
    var v = 0
    while (v < inst.nUsers) {
      if (countMask.forall(_(v))) {
        val av = res.a(v)
        var x = 0
        while (x < inst.nItems) { acc += inst.importance(x) * av(x); x += 1 }
      }
      v += 1
    }
    acc
  }

  /** Convenience: run + σ. */
  def sigma(inst: ProblemInstance, seeds: Seq[Seed], mask: Option[Array[Boolean]] = None,
            countMask: Option[Array[Boolean]] = None): Double =
    sigmaOf(inst, run(inst, seeds, mask), countMask)

  /** Future-adoption likelihood π (Eq. 7) of the end state:
    * Σ_v Σ_y (1−a(v,y)) · AIS(v,y) · P_pref(v,y), with the IC form of AIS
    * (footnote 22) evaluated mean-field.
    */
  def pi(inst: ProblemInstance, res: DiffusionResult, countMask: Option[Array[Boolean]] = None): Double = {
    val p = inst.params
    val sumA = res.a.map(_.sum)
    val contrib = new Array[Double](inst.nItems)
    var acc = 0.0
    var v = 0
    while (v < inst.nUsers) {
      if (countMask.forall(_(v))) {
        val av = res.a(v)
        if (p.beta != 0.0) Dynamics.prefContribInto(inst, res.w(v), av, contrib)
        // P_act of every adopting in-neighbour, shared by all items
        val nbrs = inst.inNbr(v)
        val act = new Array[Double](nbrs.length)
        var i = 0
        while (i < nbrs.length) {
          val u = nbrs(i)
          if (sumA(u) > 0.0)
            act(i) = Dynamics.act(inst, inst.inAct(v)(i),
              if (p.gamma != 0.0) Dynamics.sim(res.a(u), av, sumA(u), sumA(v)) else 0.0)
          i += 1
        }
        var y = 0
        while (y < inst.nItems) {
          val remain = 1.0 - av(y)
          if (remain > 1e-12) {
            var not = 1.0
            i = 0
            while (i < nbrs.length) {
              val auy = res.a(nbrs(i))(y)
              if (auy > 0.0) not *= (1.0 - auy * act(i))
              i += 1
            }
            val ais = 1.0 - not
            if (ais > 0.0) acc += remain * ais * Dynamics.pref(inst, inst.basePref(v)(y), contrib(y))
          }
          y += 1
        }
      }
      v += 1
    }
    acc
  }
}
