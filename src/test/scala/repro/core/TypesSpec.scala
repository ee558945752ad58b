package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestInstances

class TypesSpec extends AnyFunSuite {

  test("Seed rejects round 0") {
    assertThrows[IllegalArgumentException](Seed(0, 0, 0))
  }

  test("Params.frozen zeroes all dynamic rates and keeps the rest") {
    val p = Params(eta = 2.0, beta = 0.5, gamma = 0.3, extraScale = 0.4)
    val f = p.frozen
    assert(f.eta == 0.0 && f.beta == 0.0 && f.gamma == 0.0)
    assert(f.extraScale == 0.4 && f.maxSteps == p.maxSteps)
  }

  test("Params validates actCap and maxSteps") {
    assertThrows[IllegalArgumentException](Params(actCap = 1.0))
    assertThrows[IllegalArgumentException](Params(maxSteps = 0))
  }

  test("cMeta/sMeta index the kinds correctly") {
    val inst = TestInstances.random(1L)
    assert(inst.cMeta.forall(m => inst.metaKinds(m) == RelKind.Complementary))
    assert(inst.sMeta.forall(m => inst.metaKinds(m) == RelKind.Substitutable))
    assert((inst.cMeta ++ inst.sMeta).sorted == (0 until inst.nMeta))
  }

  private def pairsOf(r: RelevanceCsr) = r.x.indices.map(i => (r.x(i), r.y(i), r.s(i)))
  private def rowOf(r: RelevanceCsr, x: Int) = (r.rowPtr(x) until r.rowPtr(x + 1)).map(j => (r.nbr(j), r.value(j)))

  test("relevance pairs list exactly the positive upper-triangle entries") {
    val inst = TestInstances.line3
    assert(pairsOf(inst.relevance(0)) == Seq((0, 1, 0.8)))
    assert(inst.relevance(1).nPairs == 0)
  }

  test("relevance rows are the symmetric expansion of the pairs") {
    val inst = TestInstances.line3
    assert(rowOf(inst.relevance(0), 0) == Seq((1, 0.8)))
    assert(rowOf(inst.relevance(0), 1) == Seq((0, 0.8)))
  }

  test("with* copies share the relevance CSR; a copy with new metaS rebuilds it") {
    val inst = TestInstances.random(2L)
    val rel = inst.relevance
    assert(inst.withParams(inst.params.frozen).relevance eq rel)
    assert(inst.withBudget(1.0).relevance eq rel)
    assert(inst.withT(1).relevance eq rel)
    assert(inst.derive(params = inst.params.frozen, T = 1).relevance eq rel)
    val zero = inst.copy(metaS = inst.metaS.map(m => Array.fill(m.length, m.length)(0.0)))
    assert(zero.relevance.forall(_.nPairs == 0))
  }

  test("fromDense rejects an asymmetric matrix and a nonzero diagonal") {
    val asym = TestInstances.sym(3)((0, 1, 0.5))
    asym(1)(0) = 0.4
    assertThrows[IllegalArgumentException](RelevanceCsr.fromDense(asym, 3))
    val diag = TestInstances.sym(3)((0, 1, 0.5))
    diag(2)(2) = 0.3
    assertThrows[IllegalArgumentException](RelevanceCsr.fromDense(diag, 3))
  }

  test("fromDense rejects a wrong shape and entries outside [0, 1]") {
    val m = TestInstances.sym(3)((0, 1, 0.5))
    assertThrows[IllegalArgumentException](RelevanceCsr.fromDense(m, 4))
    assertThrows[IllegalArgumentException](RelevanceCsr.fromDense(m.map(_.take(2)), 3))
    assertThrows[IllegalArgumentException](RelevanceCsr.fromDense(TestInstances.sym(3)((0, 1, 1.5)), 3))
    assertThrows[IllegalArgumentException](RelevanceCsr.fromDense(TestInstances.sym(3)((1, 2, -0.1)), 3))
    assert(RelevanceCsr.fromDense(m, 3).nPairs == 1)
  }

  test("totalCost and withinBudget") {
    val inst = TestInstances.line3 // unit costs, budget 10
    val seeds = Seq(Seed(0, 0, 1), Seed(1, 1, 2))
    assert(inst.totalCost(seeds) == 2.0)
    assert(inst.withinBudget(seeds))
    assert(!inst.withBudget(1.0).withinBudget(seeds))
  }

  test("with* helpers replace only their field") {
    val inst = TestInstances.line3
    assert(inst.withT(7).T == 7)
    assert(inst.withBudget(3.0).budget == 3.0)
    val p = Params(beta = 0.0)
    assert(inst.withParams(p).params.beta == 0.0)
  }

  test("degree helpers") {
    val inst = TestInstances.line3
    assert(inst.outDegree(0) == 1 && inst.inDegree(1) == 1 && inst.inDegree(0) == 0)
  }

  test("RelKind signs") {
    assert(RelKind.Complementary.sign == 1.0)
    assert(RelKind.Substitutable.sign == -1.0)
  }
}
