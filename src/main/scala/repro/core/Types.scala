package repro.core

/** Whether a meta-graph describes the complementary or the substitutable
  * relationship between items (paper Sec. III, sets {m^C} and {m^S}).
  */
sealed trait RelKind { def sign: Double }
object RelKind {
  /** Complementary: adopting x raises preference for y. */
  case object Complementary extends RelKind { val sign = 1.0 }
  /** Substitutable: adopting x lowers preference for y. */
  case object Substitutable extends RelKind { val sign = -1.0 }
}

/** A seed `(u, x, t)`: item `x` is promoted from user `u` starting at the
  * t-th promotion (1-based, t ∈ [1, T]).
  */
final case class Seed(user: Int, item: Int, t: Int) {
  require(t >= 1, s"promotion round must be >= 1, got $t")
  def nominee: Nominee = Nominee(user, item)
}

/** A nominee `(u, x)`: a candidate seed whose promotion round is not yet
  * decided (assigned later by TDSI).
  */
final case class Nominee(user: Int, item: Int)

/** Constants of the closed-form factor model (DESIGN.md Sec. 4).
  *
  * Setting `eta = beta = gamma = 0` freezes all dynamics, which is exactly
  * the "frozen-probability" spread function f used by TMI's MCP and by the
  * static baselines.
  */
final case class Params(
    /** Prior mass on each meta-graph weighting. */
    w0: Double = 1.0,
    /** Weighting evidence rate: how fast co-adoptions shift meta-graph weightings. */
    eta: Double = 2.0,
    /** Preference cross-elasticity: effect of adopted complements/substitutes. */
    beta: Double = 0.6,
    /** Influence-learning rate: effect of adoption-set similarity on P_act. */
    gamma: Double = 0.4,
    /** Scale of the extra-adoption probability P_ext. */
    extraScale: Double = 0.5,
    /** Weighted-cascade base influence: baseAct = min(actBase, actScale/indeg). */
    actScale: Double = 1.2,
    actBase: Double = 0.4,
    /** Hard cap on the dynamic P_act (keeps 1 - p > 0 for log-space products). */
    actCap: Double = 0.9,
    /** Max mean-field steps per promotion. */
    maxSteps: Int = 8,
    /** Stop a promotion's steps once the largest adoption delta is below this. */
    eps: Double = 1e-4) {
  require(actCap < 1.0 && actCap > 0.0, "actCap must be in (0,1)")
  require(maxSteps >= 1, "maxSteps must be >= 1")

  /** The frozen variant: no perception/preference/influence updates. */
  def frozen: Params = copy(eta = 0.0, beta = 0.0, gamma = 0.0)
}

/** A driver-local IMDPP instance: everything the diffusion engines and the
  * seed-selection algorithms consume.
  *
  * Users and items are dense 0-based ints. Meta-graph relevance matrices
  * `metaS(m)(x)(y) = s(x,y|m)` are symmetric with zero diagonal and
  * entries in [0, 1]. They are the construction input only: algorithm code
  * reads relevance through one primitive CSR per meta-graph
  * ([[relevance]]), built once per `metaS`. `inNbr`
  * and `inAct` are aligned: `inAct(v)(i)` is the base influence strength of
  * `inNbr(v)(i)` on `v`. Built from Spark DataFrames by
  * [[repro.data.InstanceBuilder]]; small enough for the driver by design
  * (DESIGN.md Sec. 6).
  */
final case class ProblemInstance(
    nUsers: Int,
    nItems: Int,
    itemNames: Vector[String],
    importance: Array[Double],
    inNbr: Array[Array[Int]],
    inAct: Array[Array[Double]],
    outNbr: Array[Array[Int]],
    basePref: Array[Array[Double]],
    metaKinds: Vector[RelKind],
    metaS: Vector[Array[Array[Double]]],
    cost: Array[Array[Double]],
    budget: Double,
    T: Int,
    params: Params) {
  require(importance.length == nItems, "importance must have nItems entries")
  require(inNbr.length == nUsers && inAct.length == nUsers && outNbr.length == nUsers)
  require(basePref.length == nUsers && cost.length == nUsers)
  require(metaS.length == metaKinds.length, "one relevance matrix per meta-graph")
  require(T >= 1, "at least one promotion")

  /** Indices of complementary meta-graphs. */
  val cMeta: Vector[Int] = metaKinds.zipWithIndex.collect { case (RelKind.Complementary, i) => i }

  /** Indices of substitutable meta-graphs. */
  val sMeta: Vector[Int] = metaKinds.zipWithIndex.collect { case (RelKind.Substitutable, i) => i }

  val nMeta: Int = metaKinds.length

  /** Sparse relevance per meta-graph, built from [[metaS]] on first use
    * and shared by every copy made with [[derive]] or the `with*` helpers.
    * The diffusion engines and TMI/DRE's average relevance read these
    * instead of the dense matrices.
    */
  def relevance: Vector[RelevanceCsr] = {
    if (csr == null) csr = metaS.map(RelevanceCsr.fromDense(_, nItems))
    csr
  }
  @volatile @transient private var csr: Vector[RelevanceCsr] = null

  def totalCost(seeds: Iterable[Seed]): Double =
    seeds.iterator.map(s => cost(s.user)(s.item)).sum

  def withinBudget(seeds: Iterable[Seed]): Boolean = totalCost(seeds) <= budget + 1e-9

  /** A copy with new campaign settings; the social graph, preferences and
    * relevance (with its CSR) are shared, not rebuilt.
    */
  def derive(params: Params = params, budget: Double = budget, T: Int = T): ProblemInstance = {
    val c = copy(params = params, budget = budget, T = T)
    c.csr = relevance
    c
  }

  def withParams(p: Params): ProblemInstance = derive(params = p)
  def withBudget(b: Double): ProblemInstance = derive(budget = b)
  def withT(t: Int): ProblemInstance = derive(T = t)

  def inDegree(v: Int): Int = inNbr(v).length
  def outDegree(u: Int): Int = outNbr(u).length
}

/** One meta-graph's relevance s(x,y|m) > 0 in primitive arrays, two views
  * of the same entries:
  *
  *  - pairs: `x(i) < y(i)` with value `s(i)`, the upper triangle in row-major
  *    order (evidence and preference contributions);
  *  - rows: the symmetric expansion, where item x's neighbours are
  *    `nbr(rowPtr(x) until rowPtr(x + 1))` in ascending order with values
  *    `value(...)` (item associations).
  *
  * [[RelevanceCsr.fromDense]] accepts only a valid relevance matrix
  * (square, symmetric, zero diagonal, entries in [0, 1]), so both views
  * hold every positive entry of it.
  */
final class RelevanceCsr(
    val x: Array[Int],
    val y: Array[Int],
    val s: Array[Double],
    val rowPtr: Array[Int],
    val nbr: Array[Int],
    val value: Array[Double]) {
  def nPairs: Int = s.length
}

object RelevanceCsr {
  def fromDense(m: Array[Array[Double]], nItems: Int): RelevanceCsr = {
    require(m.length == nItems && m.forall(_.length == nItems), s"relevance must be $nItems x $nItems")
    for (x <- 0 until nItems; y <- x until nItems) {
      val s = m(x)(y)
      require(s >= 0.0 && s <= 1.0, s"relevance ($x,$y) = $s is outside [0, 1]")
      require(m(y)(x) == s, s"relevance is not symmetric at ($x,$y)")
      require(x != y || s == 0.0, s"relevance diagonal ($x,$x) = $s is not 0")
    }
    val xs = Array.newBuilder[Int]
    val ys = Array.newBuilder[Int]
    val ss = Array.newBuilder[Double]
    val degree = new Array[Int](nItems)
    var x = 0
    while (x < nItems) {
      var y = x + 1
      while (y < nItems) {
        if (m(x)(y) > 0.0) {
          xs += x; ys += y; ss += m(x)(y)
          degree(x) += 1; degree(y) += 1
        }
        y += 1
      }
      x += 1
    }
    val (px, py, ps) = (xs.result(), ys.result(), ss.result())
    val rowPtr = new Array[Int](nItems + 1)
    x = 0
    while (x < nItems) { rowPtr(x + 1) = rowPtr(x) + degree(x); x += 1 }
    // pairs are sorted by (x, y): filling rows in pair order leaves every
    // row ascending (lower neighbours arrive first, as x of earlier pairs)
    val fill = rowPtr.clone()
    val nbr = new Array[Int](2 * ps.length)
    val value = new Array[Double](2 * ps.length)
    var i = 0
    while (i < ps.length) {
      nbr(fill(px(i))) = py(i); value(fill(px(i))) = ps(i); fill(px(i)) += 1
      nbr(fill(py(i))) = px(i); value(fill(py(i))) = ps(i); fill(py(i)) += 1
      i += 1
    }
    new RelevanceCsr(px, py, ps, rowPtr, nbr, value)
  }
}
