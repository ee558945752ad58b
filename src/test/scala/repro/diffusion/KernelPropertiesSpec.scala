package repro.diffusion

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.{Seed => RngSeed}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestInstances
import repro.core.{ProblemInstance, RelevanceCsr, Seed, TMI}

/** ScalaCheck properties of the relevance CSR, the average relevance built
  * from it, and the mean-field kernel on random small instances (frozen and
  * dynamic, one to three promotions).
  */
class KernelPropertiesSpec extends AnyFunSuite {

  private def check(p: Prop): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(RngSeed(20211L))
    val res = Test.check(params, p)
    assert(res.passed, org.scalacheck.util.Pretty.pretty(res))
  }

  private val genInst: Gen[ProblemInstance] = for {
    seed <- Gen.choose(1L, 1000000L)
    nUsers <- Gen.choose(2, 14)
    nItems <- Gen.choose(1, 6)
    nEdges <- Gen.choose(0, 40)
    t <- Gen.choose(1, 3)
    frozen <- Gen.oneOf(true, false)
  } yield {
    val inst = TestInstances.random(seed, nUsers, nItems, nEdges).withT(t)
    if (frozen) inst.withParams(inst.params.frozen) else inst
  }

  private def genSeed(inst: ProblemInstance): Gen[Seed] = for {
    u <- Gen.choose(0, inst.nUsers - 1)
    x <- Gen.choose(0, inst.nItems - 1)
    t <- Gen.choose(1, inst.T)
  } yield Seed(u, x, t)

  private val genCampaign: Gen[(ProblemInstance, List[Seed], Option[Array[Boolean]])] = for {
    inst <- genInst
    seeds <- Gen.choose(0, 5).flatMap(Gen.listOfN(_, genSeed(inst)))
    mask <- Gen.option(Gen.listOfN(inst.nUsers, Gen.oneOf(true, false)).map(_.toArray))
  } yield (inst, seeds, mask)

  private val genSymmetric: Gen[Array[Array[Double]]] = for {
    n <- Gen.choose(0, 8)
    entries <- Gen.listOfN(n * n, Gen.frequency(1 -> Gen.choose(0.01, 1.0), 2 -> Gen.const(0.0)))
  } yield {
    val m = Array.fill(n, n)(0.0)
    for (x <- 0 until n; y <- x + 1 until n) { m(x)(y) = entries(x * n + y); m(y)(x) = m(x)(y) }
    m
  }

  test("the relevance CSR round-trips metaS through both of its views") {
    check(Prop.forAll(genSymmetric) { m =>
      val n = m.length
      val r = RelevanceCsr.fromDense(m, n)
      val fromPairs = Array.fill(n, n)(0.0)
      r.x.indices.foreach { i =>
        fromPairs(r.x(i))(r.y(i)) = r.s(i); fromPairs(r.y(i))(r.x(i)) = r.s(i)
      }
      val fromRows = Array.fill(n, n)(0.0)
      val rowsAscending = (0 until n).forall { x =>
        val cols = (r.rowPtr(x) until r.rowPtr(x + 1)).map(r.nbr)
        (r.rowPtr(x) until r.rowPtr(x + 1)).foreach(j => fromRows(x)(r.nbr(j)) = r.value(j))
        cols == cols.sorted
      }
      r.x.indices.forall(i => r.x(i) < r.y(i)) && rowsAscending &&
        fromPairs.map(_.toSeq).toSeq == m.map(_.toSeq).toSeq &&
        fromRows.map(_.toSeq).toSeq == m.map(_.toSeq).toSeq
    })
  }

  /** The dense per-pair average: for each pair and each user, the class's
    * weighted sum read from `metaS`, summed over users, divided by the
    * user count.
    */
  private def denseAvgRel(inst: ProblemInstance, ws: Array[Array[Double]]) = {
    val n = inst.nItems
    val rC = Array.fill(n, n)(0.0)
    val rS = Array.fill(n, n)(0.0)
    def r(cls: Vector[Int], w: Array[Double], x: Int, y: Int): Double = {
      var acc = 0.0
      cls.foreach(m => acc += w(m) * inst.metaS(m)(x)(y))
      acc
    }
    val k = math.max(1, ws.length)
    for (x <- 0 until n; y <- x + 1 until n) {
      var c = 0.0
      var s = 0.0
      ws.foreach { w => c += r(inst.cMeta, w, x, y); s += r(inst.sMeta, w, x, y) }
      rC(x)(y) = c / k; rC(y)(x) = c / k
      rS(x)(y) = s / k; rS(y)(x) = s / k
    }
    (rC, rS)
  }

  test("avgRel from the CSR equals the dense per-pair average bit for bit") {
    def bits(m: Array[Array[Double]]) = m.map(_.map(java.lang.Double.doubleToRawLongBits).toSeq).toSeq
    val gen = for {
      inst <- genInst
      k <- Gen.choose(0, 6)
      ws <- Gen.listOfN(k, Gen.listOfN(inst.nMeta, Gen.frequency(1 -> Gen.const(0.0), 4 -> Gen.choose(0.0, 1.0))))
    } yield (inst, ws.map(_.toArray).toArray)
    check(Prop.forAll(gen) { case (inst, ws) =>
      val (rC, rS) = TMI.avgRel(inst, ws)
      val (dC, dS) = denseAvgRel(inst, ws)
      bits(rC) == bits(dC) && bits(rS) == bits(dS)
    })
  }

  test("adoption probabilities stay in [0, 1]") {
    check(Prop.forAll(genCampaign) { case (inst, seeds, mask) =>
      LocalDiffusion.run(inst, seeds, mask).a.forall(_.forall(v => v >= 0.0 && v <= 1.0))
    })
  }

  test("each relationship class's weights sum to 1 for every user") {
    check(Prop.forAll(genCampaign) { case (inst, seeds, mask) =>
      LocalDiffusion.run(inst, seeds, mask).w.forall { w =>
        Seq(inst.cMeta, inst.sMeta).filter(_.nonEmpty).forall(cls => math.abs(cls.map(w).sum - 1.0) < 1e-12)
      }
    })
  }

  test("frozen sigma does not fall when a seed is added") {
    val gen = genCampaign.flatMap { case (inst, seeds, _) =>
      genSeed(inst).map(extra => (inst.withParams(inst.params.frozen), seeds, extra))
    }
    check(Prop.forAll(gen) { case (inst, seeds, extra) =>
      LocalDiffusion.sigma(inst, extra :: seeds) >= LocalDiffusion.sigma(inst, seeds) - 1e-9
    })
  }
}
