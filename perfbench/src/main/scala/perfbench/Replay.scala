package perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{DRE, Dysim, Nominee, ProblemInstance, Seed, TDSI, TMI, TargetMarket}
import repro.data.{DatasetConfig, InstanceBuilder}
import repro.kg.{KGGenerator, RelevanceEngine}
import repro.social.SocialGen

/** Traced replays of two program entry points, rebuilt from the public
  * functions they call so that each phase gets its own span. The
  * benchmark checks every replay against the entry point it copies
  * (`InstanceBuilder.build`, `Dysim.run`), so a replay cannot silently
  * drift from the program.
  */
object Replay {

  /** `InstanceBuilder.build`, phase by phase. */
  def build(spark: SparkSession, cfg: DatasetConfig, tr: Tracer): ProblemInstance = {
    val edgePairs = tr.span("social.SocialGen.edges") {
      SocialGen.collectEdges(SocialGen.edges(spark, cfg.nUsers, cfg.nEdges, cfg.socialSeed))
    }
    // KGGenerator.edges is lazy, so the KG generation runs inside this span
    val metaS = tr.span("kg.RelevanceEngine.collectMatrices") {
      RelevanceEngine.collectMatrices(KGGenerator.edges(spark, cfg.kg), cfg.metaGraphs, cfg.nItems)
    }
    tr.span("data.InstanceBuilder.fromParts")(InstanceBuilder.fromParts(cfg, edgePairs, metaS))
  }

  /** What a Dysim replay leaves behind besides its seeds. */
  final case class DysimRun(nominees: Vector[Nominee], markets: Vector[TargetMarket], groups: Int, seeds: Vector[Seed])

  /** `Dysim.runTraced`, phase by phase. */
  def dysim(inst: ProblemInstance, cfg: TMI.Config, tr: Tracer): DysimRun = tr.span("core.Dysim.run") {
    val nominees = tr.span("core.TMI.selectNominees")(TMI.selectNominees(inst, cfg))
    val clusters = tr.span("core.TMI.clusterNominees")(TMI.clusterNominees(inst, nominees, cfg))
    val markets = tr.span("core.TMI.identifyMarkets")(TMI.identifyMarkets(inst, clusters, cfg))
    val groups = tr.span("core.TMI.groupAndPrioritize")(TMI.groupAndPrioritize(inst, markets, cfg))
    tr.count("core.TMI.nominees", nominees.length)
    tr.count("core.TMI.markets", markets.length)
    tr.count("core.TMI.market_users", markets.iterator.map(_.users.size).sum)
    tr.count("core.TMI.groups", groups.length)

    val s = scala.collection.mutable.ArrayBuffer.empty[Seed]
    groups.foreach { group =>
      val totalNominees = math.max(1, group.iterator.map(_.nominees.length).sum)
      var prevMarketSeeds: Seq[Seed] = Nil
      group.foreach { market =>
        val tTauK = math.max(1, math.round(market.nominees.length.toDouble * inst.T / totalNominees).toInt)
        val marketMask = market.mask(inst.nUsers)
        val marketSeeds = scala.collection.mutable.ArrayBuffer.empty[Seed]
        var itemsLeft = market.items
        while (itemsLeft.nonEmpty) {
          val rel = tr.span("core.Dysim.marketRelevance")(Dysim.marketRelevance(inst, s.toSeq, market))
          val xp = tr.span("core.DRE.bestItem") {
            DRE.bestItem(rel._1, rel._2, inst.importance, market.diameter, itemsLeft)
          }
          itemsLeft -= xp
          val np = market.nominees.filter(_.item == xp)
          marketSeeds ++= tr.span("core.TDSI.assignTimings") {
            TDSI.assignTimings(inst, s, prevMarketSeeds, tTauK, np, marketMask)
          }
        }
        prevMarketSeeds = marketSeeds.toSeq
      }
    }
    DysimRun(nominees, markets, groups.length, s.toVector)
  }
}
