package perfbench

import repro.core.{ProblemInstance, Seed}

/** Renames the users and the items of an instance by seeded random
  * permutations. The renamed instance is the same problem: every
  * algorithm does the same work on it and finds the same σ, up to ties the
  * algorithms break by id and to float sums taken in another order. Seed 0
  * is the identity, so it keeps the instance exactly as built.
  */
final class Relabel(seed: Long, nUsers: Int, nItems: Int) {

  /** `users(old) = new`, `items(old) = new`. */
  val users: Array[Int] = Relabel.permutation(nUsers, seed)
  val items: Array[Int] = Relabel.permutation(nItems, seed * 31 + 17)

  def apply(s: Seed): Seed = Seed(users(s.user), items(s.item), s.t)

  def apply(inst: ProblemInstance): ProblemInstance =
    if (seed == 0L) inst
    else {
      require(inst.nUsers == nUsers && inst.nItems == nItems, "instance size differs from the permutation's")
      val oldUser = Relabel.inverse(users)
      val oldItem = Relabel.inverse(items)
      def byUser[A: scala.reflect.ClassTag](a: Array[A]): Array[A] = Array.tabulate(nUsers)(v => a(oldUser(v)))
      def byItem(row: Array[Double]): Array[Double] = Array.tabulate(nItems)(x => row(oldItem(x)))
      inst.copy(
        itemNames = Vector.tabulate(nItems)(x => inst.itemNames(oldItem(x))),
        importance = byItem(inst.importance),
        inNbr = byUser(inst.inNbr.map(_.map(users))),
        inAct = byUser(inst.inAct),
        outNbr = byUser(inst.outNbr.map(_.map(users))),
        basePref = byUser(inst.basePref.map(byItem)),
        metaS = inst.metaS.map(m => Array.tabulate(nItems)(x => byItem(m(oldItem(x))))),
        cost = byUser(inst.cost.map(byItem)))
    }
}

object Relabel {
  def apply(inst: ProblemInstance, seed: Long): ProblemInstance = new Relabel(seed, inst.nUsers, inst.nItems)(inst)

  def permutation(n: Int, seed: Long): Array[Int] =
    if (seed == 0L) Array.tabulate(n)(identity)
    else new scala.util.Random(seed).shuffle((0 until n).toVector).toArray

  private def inverse(p: Array[Int]): Array[Int] = {
    val inv = new Array[Int](p.length)
    p.indices.foreach(i => inv(p(i)) = i)
    inv
  }
}
