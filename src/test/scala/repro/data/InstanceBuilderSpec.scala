package repro.data

import repro.SparkSpec
import repro.core.Seed
import repro.diffusion.LocalDiffusion

class InstanceBuilderSpec extends SparkSpec {

  private def smallCfg = DatasetGen.amazonSmall()

  test("build produces a consistent instance") {
    val inst = InstanceBuilder.build(spark, smallCfg)
    assert(inst.nUsers == smallCfg.nUsers && inst.nItems == smallCfg.nItems)
    assert(inst.metaS.size == smallCfg.metaGraphs.size)
    assert(inst.importance.forall(w => w >= 0.2 && w <= 3.0))
    // adjacency is consistent: in-degree sum == out-degree sum == edge count
    assert(inst.inNbr.map(_.length).sum == inst.outNbr.map(_.length).sum)
  }

  test("build is deterministic") {
    val a = InstanceBuilder.build(spark, smallCfg)
    val b = InstanceBuilder.build(spark, smallCfg)
    assert(a.inNbr.map(_.toVector).toVector == b.inNbr.map(_.toVector).toVector)
    assert(a.basePref.map(_.toVector).toVector == b.basePref.map(_.toVector).toVector)
    assert(a.metaS.map(_.map(_.toVector).toVector) == b.metaS.map(_.map(_.toVector).toVector))
  }

  test("base influence follows the weighted cascade (bounded by actBase)") {
    val inst = InstanceBuilder.build(spark, smallCfg)
    for (v <- 0 until inst.nUsers; i <- inst.inNbr(v).indices) {
      val expected = math.min(inst.params.actBase, inst.params.actScale / math.max(1, inst.inDegree(v)))
      assert(math.abs(inst.inAct(v)(i) - expected) < 1e-12)
    }
  }

  test("costs follow the out-degree x (1.5 - pref) model") {
    val inst = InstanceBuilder.build(spark, smallCfg)
    for (u <- 0 until 20; x <- 0 until inst.nItems) {
      val expected = CostModel.cost(inst.outDegree(u), inst.basePref(u)(x), smallCfg.costScale)
      assert(math.abs(inst.cost(u)(x) - expected) < 1e-12)
    }
  }

  test("relevance matrices are nonzero (the KG actually connects items)") {
    val inst = InstanceBuilder.build(spark, smallCfg)
    assert(inst.cMeta.exists(m => inst.relevance(m).nPairs > 0), "some complementary relevance")
    assert(inst.sMeta.exists(m => inst.relevance(m).nPairs > 0), "some substitutable relevance")
  }

  test("fromParts rejects out-of-range social edges") {
    val cfg = smallCfg
    assertThrows[IllegalArgumentException](
      InstanceBuilder.fromParts(cfg, Seq((0, cfg.nUsers)), cfg.metaGraphs.map(_ =>
        Array.fill(cfg.nItems, cfg.nItems)(0.0))))
  }

  test("a built instance diffuses influence end to end") {
    val inst = InstanceBuilder.build(spark, smallCfg)
    val hub = (0 until inst.nUsers).maxBy(inst.outDegree)
    val sigma = LocalDiffusion.sigma(inst, Seq(Seed(hub, 0, 1)))
    assert(sigma > inst.importance(0), "the seed influences at least someone beyond itself")
  }
}
