package perfbench

import repro.core.ProblemInstance
import repro.diffusion.LocalDiffusion

/** Output checks. Each returns the problems it found; an empty list means
  * the answer passed.
  */
object Checks {

  /** Checks that hold for every seed group on its own. */
  def answer(a: Answer): List[String] = a.error match {
    case Some(e) => List(s"${a.key}: $e")
    case None =>
      val inst = a.inst
      val out = List.newBuilder[String]
      val outOfRange = a.seeds.filterNot(s => s.user >= 0 && s.user < inst.nUsers && s.item >= 0 && s.item < inst.nItems)
      outOfRange.foreach(s => out += s"${a.key}: user or item out of range in $s")
      a.seeds.filterNot(s => s.t >= 1 && s.t <= inst.T).foreach(s => out += s"${a.key}: round out of [1, ${inst.T}] in $s")
      if (outOfRange.isEmpty && !inst.withinBudget(a.seeds))
        out += f"${a.key}: cost ${inst.totalCost(a.seeds)}%.4f exceeds budget ${inst.budget}%.4f"
      if (!(a.sigma.isFinite && a.sigma >= 0.0)) out += s"${a.key}: sigma ${a.sigma} is not finite and >= 0"
      if (out.result().isEmpty) a.claimedSigma.foreach { claimed =>
        val fresh = LocalDiffusion.sigma(inst, a.seeds)
        if (math.abs(fresh - claimed) > 1e-9 * math.max(1.0, math.abs(fresh)))
          out += s"${a.key}: claimed sigma $claimed but a fresh evaluation gives $fresh"
      }
      out.result()
  }

  /** Every iteration of a run must give the same seed groups and σ as the
    * first one, traced replays included.
    */
  def sameAs(reference: Answer, a: Answer): List[String] =
    if (reference.error.nonEmpty || a.error.nonEmpty) Nil // already reported by [[answer]]
    else if (a.seeds != reference.seeds) List(s"${a.key}: seeds ${a.seeds} differ from the first iteration's ${reference.seeds}")
    else if (a.sigma != reference.sigma) List(s"${a.key}: sigma ${a.sigma} differs from the first iteration's ${reference.sigma}")
    else Nil

  /** The traced set-up replay must build exactly the instance
    * `InstanceBuilder.build` built.
    */
  def sameInstance(a: ProblemInstance, b: ProblemInstance): List[String] = {
    import java.util.Arrays.{deepEquals, equals => same}
    val fields = List[(String, Boolean)](
      "sizes" -> (a.nUsers == b.nUsers && a.nItems == b.nItems && a.budget == b.budget && a.T == b.T),
      "params" -> (a.params == b.params && a.metaKinds == b.metaKinds),
      "importance" -> same(a.importance, b.importance),
      "inNbr" -> deepEquals(a.inNbr.asInstanceOf[Array[AnyRef]], b.inNbr.asInstanceOf[Array[AnyRef]]),
      "inAct" -> deepEquals(a.inAct.asInstanceOf[Array[AnyRef]], b.inAct.asInstanceOf[Array[AnyRef]]),
      "outNbr" -> deepEquals(a.outNbr.asInstanceOf[Array[AnyRef]], b.outNbr.asInstanceOf[Array[AnyRef]]),
      "basePref" -> deepEquals(a.basePref.asInstanceOf[Array[AnyRef]], b.basePref.asInstanceOf[Array[AnyRef]]),
      "cost" -> deepEquals(a.cost.asInstanceOf[Array[AnyRef]], b.cost.asInstanceOf[Array[AnyRef]]),
      "metaS" -> (a.metaS.length == b.metaS.length &&
        a.metaS.indices.forall(m => deepEquals(a.metaS(m).asInstanceOf[Array[AnyRef]], b.metaS(m).asInstanceOf[Array[AnyRef]]))))
    fields.collect { case (name, false) => s"set-up replay: $name differs from InstanceBuilder.build" }
  }
}
