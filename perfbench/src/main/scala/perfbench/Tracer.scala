package perfbench

import scala.collection.mutable

/** In-memory spans and counts recorded around calls into the program's
  * layers. A disabled tracer only runs the wrapped code, so untraced
  * iterations pay nothing beyond one branch per call site.
  *
  * Spans are kept in memory and written out once, when the run ends.
  */
final class Tracer(val enabled: Boolean) {
  import Tracer.Span

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var traceId = 0
  private val counts = mutable.LinkedHashMap.empty[(Int, String), Double]

  /** Starts a new trace: spans recorded from now on share its id. */
  def newTrace(): Int = { traceId += 1; traceId }

  def span[A](name: String)(f: => A): A =
    if (!enabled) f
    else {
      val sp = Span(traceId, spans.length, name, open.headOption.getOrElse(-1), System.nanoTime(), 0L)
      spans += sp
      open = sp.id :: open
      try f
      finally { sp.end = System.nanoTime(); open = open.tail }
    }

  /** Adds `v` to the count `name` of the current trace. */
  def count(name: String, v: Double): Unit =
    if (enabled) counts((traceId, name)) = counts.getOrElse((traceId, name), 0.0) + v

  /** Per-name totals of one trace: inclusive ms, self ms, calls. Self time
    * is a span's duration minus the durations of its direct children
    * (spans of one thread nest, so children never overlap).
    */
  def summary(trace: Int): Map[String, Tracer.Total] = {
    val mine = spans.filter(_.trace == trace)
    val childNs = mutable.HashMap.empty[Int, Long].withDefaultValue(0L)
    mine.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.durNs)
    mine.groupBy(_.name).map { case (name, ss) =>
      name -> Tracer.Total(
        ss.iterator.map(_.durNs).sum / 1e6,
        ss.iterator.map(s => s.durNs - childNs(s.id)).sum / 1e6,
        ss.length)
    }
  }

  def countsOf(trace: Int): Map[String, Double] =
    counts.iterator.collect { case ((t, name), v) if t == trace => name -> v }.toMap

  /** One JSON object per span, one per line. */
  def write(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val lines = spans.iterator.map { s =>
      s"""{"trace": ${s.trace}, "id": ${s.id}, "parent": ${s.parent}, "name": "${s.name}", """ +
        s""""start_ns": ${s.start}, "end_ns": ${s.end}}"""
    }
    java.nio.file.Files.write(path, lines.mkString("", "\n", "\n").getBytes("UTF-8"))
  }
}

object Tracer {
  final case class Span(trace: Int, id: Int, name: String, parent: Int, start: Long, var end: Long) {
    def durNs: Long = end - start
  }
  final case class Total(ms: Double, selfMs: Double, calls: Int)

  val off = new Tracer(false)
}
