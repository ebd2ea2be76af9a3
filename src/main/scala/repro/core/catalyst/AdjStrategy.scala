package repro.core.catalyst

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{SparkSession, SparkSessionExtensions}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Attribute, AttributeReference, EqualTo, Expression, PredicateHelper}
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical.{Filter, Join, LogicalPlan, Project}
import org.apache.spark.sql.execution.{SparkPlan, SparkStrategy}
import org.apache.spark.sql.types.LongType

import repro.core.adj.Adj
import repro.core.hypergraph.{Atom, Hypergraph}

/** Catalyst planner integration: ADJ as a physical planning `Strategy`.
  *
  * The strategy recognizes a multiway equi-join — a tree of inner joins
  * (possibly under a residual Filter) whose predicates are conjunctions of
  * attribute equalities and whose leaves expose only Long columns — and
  * replaces the whole subtree with a single [[AdjJoinExec]] that runs the
  * co-optimized one-round join. Ordinary (< 3-way, non-Long, or non-equi)
  * joins are left to Spark's built-in planner.
  *
  * Wire it up either per session via
  * `spark.experimental.extraStrategies :+= AdjStrategy(spark)` or globally
  * with `spark.sql.extensions=repro.core.catalyst.AdjExtensions`.
  */
final case class AdjStrategy(session: SparkSession) extends SparkStrategy with PredicateHelper {

  override def apply(plan: LogicalPlan): Seq[SparkPlan] = {
    if (!enabled) return Nil
    flatten(plan) match {
      case Some((leaves, eqs)) if leaves.length >= 3 && eqs.nonEmpty =>
        buildExec(plan, leaves, eqs).toSeq
      case _ => Nil
    }
  }

  private def enabled: Boolean =
    session.conf.get("spark.repro.adj.enabled", "true").toBoolean

  private def strategyCfg: Adj.Config = {
    val strat = session.conf.get("spark.repro.adj.strategy", "co-optimization") match {
      case "co-optimization"     => Adj.CoOptimization
      case "communication-first" => Adj.CommunicationFirst
      case other => throw new IllegalArgumentException(
        s"spark.repro.adj.strategy must be co-optimization or communication-first, not '$other'")
    }
    Adj.Config(
      strategy = strat,
      samples = session.conf.getOption("spark.repro.adj.samples").fold(Adj.Config().samples)(_.toInt),
    )
  }

  /** Flattens nested inner joins (and residual filters) into leaf plans plus
    * attribute-equality predicates; returns None on any non-conforming node.
    */
  private def flatten(plan: LogicalPlan): Option[(Vector[LogicalPlan], Vector[(Attribute, Attribute)])] =
    plan match {
      case Join(l, r, Inner, cond, _) =>
        for {
          (ll, le) <- flatten(l)
          (rl, re) <- flatten(r)
          eqs      <- cond.map(extractEqualities).getOrElse(Some(Vector.empty))
        } yield (ll ++ rl, le ++ re ++ eqs)
      case Filter(cond, child @ Join(_, _, Inner, _, _)) =>
        for {
          (ls, es) <- flatten(child)
          eqs      <- extractEqualities(cond)
        } yield (ls, es ++ eqs)
      // Column-pruning projections between joins are transparent: dropping a
      // column never changes multiplicities here because the executor emits
      // every full attribute binding as often as its bag multiplicity.
      case Project(projList, child @ Join(_, _, Inner, _, _))
          if projList.forall(_.isInstanceOf[AttributeReference]) =>
        flatten(child)
      case leaf if leaf.output.nonEmpty && leaf.output.forall(_.dataType == LongType) =>
        Some((Vector(leaf), Vector.empty))
      case _ => None
    }

  private def extractEqualities(cond: Expression): Option[Vector[(Attribute, Attribute)]] = {
    val pairs = splitConjunctivePredicates(cond).map {
      case EqualTo(a: Attribute, b: Attribute) => Some((a, b))
      case _                                   => None
    }
    if (pairs.forall(_.isDefined)) Some(pairs.flatten.toVector) else None
  }

  /** Union-find over attribute exprIds induced by the equality predicates:
    * each class becomes one query attribute of the hypergraph.
    */
  private def buildExec(
      plan: LogicalPlan,
      leaves: Vector[LogicalPlan],
      eqs: Vector[(Attribute, Attribute)],
  ): Option[SparkPlan] = {
    val allAttrs = leaves.flatMap(_.output)
    val idx      = allAttrs.map(_.exprId).zipWithIndex.toMap
    // Bail on duplicated exprIds, or an equality on an attribute outside the leaves.
    if (idx.size != allAttrs.length || eqs.exists { case (a, b) => !idx.contains(a.exprId) || !idx.contains(b.exprId) })
      return None
    val parent = Array.tabulate(allAttrs.length)(identity)
    def find(x: Int): Int = { var r = x; while (parent(r) != r) r = parent(r); parent(x) = r; r }
    for ((a, b) <- eqs) {
      val (ri, rj) = (find(idx(a.exprId)), find(idx(b.exprId)))
      if (ri != rj) parent(ri) = rj
    }
    // Class ids in first-appearance order, so the hypergraph's attribute ids
    // line up with the executor's ascending-attribute-id output columns.
    val classOfRoot = collection.mutable.LinkedHashMap.empty[Int, Int]
    val classOf     = allAttrs.indices.map { i =>
      classOfRoot.getOrElseUpdate(find(i), classOfRoot.size)
    }
    // The executor carries no NULLs: it drops input rows with a NULL key,
    // which never joins, but a NULL in a column that joins nothing must
    // reach the output, so such a nullable column is left to the default
    // planner.
    if (allAttrs.indices.exists(i => allAttrs(i).nullable && classOf.count(_ == classOf(i)) == 1)) return None
    // A leaf binding the same class twice is a within-relation selection the
    // hypergraph cannot express — bail to the default planner.
    val offsets     = leaves.scanLeft(0)(_ + _.output.length)
    val leafClasses = leaves.indices.map(li => leaves(li).output.indices.map(c => classOf(offsets(li) + c)))
    if (leafClasses.exists(cs => cs.distinct.length != cs.length)) return None
    val query = Hypergraph(leafClasses.zipWithIndex.map { case (cs, li) =>
      Atom(s"L$li", cs.map(c => s"x$c").toVector)
    }.toVector)
    // Map the matched plan's own output columns (which may be a pruned
    // subset of the leaf columns) to their attribute classes.
    val outputClasses = plan.output.map(a => classOf(idx(a.exprId))).toVector
    Some(AdjJoinExec(plan.output, outputClasses, query, leaves.map(planLater), strategyCfg))
  }
}

/** Physical operator running the ADJ pipeline for a recognized multiway
  * equi-join. Children produce the input relations; the operator output
  * mirrors the logical join's column list (one value per attribute class).
  */
final case class AdjJoinExec(
    output: Seq[Attribute],
    columnClass: Seq[Int],
    query: Hypergraph,
    children: Seq[SparkPlan],
    cfg: Adj.Config,
) extends SparkPlan {

  override protected def doExecute(): RDD[InternalRow] = {
    val spark = SparkSession.active
    // Children that compute the same rows (equal canonical plans, as Spark's
    // exchange reuse compares them) share one input, so a self-join reads,
    // counts and samples its table once.
    val shared = collection.mutable.Map.empty[SparkPlan, RDD[Array[Long]]]
    val data = children.toVector.map { child =>
      if (child.deterministic) shared.getOrElseUpdate(child.canonicalized, Adj.longRows(child.execute()))
      else Adj.longRows(child.execute())
    }
    val (result, report) = Adj.run(spark, query, data, cfg)
    logInfo(s"ADJ report before the join runs: $report")
    // Result columns are ascending attribute id == class id; each output
    // column reads its class's value.
    Adj.unsafeRows(result, columnClass.toArray)
  }

  override protected def withNewChildrenInternal(newChildren: IndexedSeq[SparkPlan]): SparkPlan =
    copy(children = newChildren)
}

/** `spark.sql.extensions` entry point injecting [[AdjStrategy]]. */
class AdjExtensions extends (SparkSessionExtensions => Unit) {
  override def apply(extensions: SparkSessionExtensions): Unit =
    extensions.injectPlannerStrategy(session => AdjStrategy(session))
}
