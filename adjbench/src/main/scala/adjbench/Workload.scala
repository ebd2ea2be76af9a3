package adjbench

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.baselines.SparkSqlJoin
import repro.core.adj.Adj
import repro.core.hypergraph.{Hypergraph, QueryLibrary}
import repro.data.GraphData

/** One named benchmark workload: a query over the AS stand-in graph, the
  * ADJ strategy, and whether it enters through `spark.sql` (with
  * `AdjStrategy`) or through `Adj.runOnGraph`.
  */
final case class Workload(name: String, queryName: String, strategy: Adj.Strategy, viaSql: Boolean) {
  def query: Hypergraph = QueryLibrary.all(queryName)
  def config: Adj.Config = Adj.Config(strategy = strategy, samples = Workload.Samples)
  def sqlText: String = SparkSqlJoin.sql(query, Workload.EdgeView)

  /** Runs the query; returns the (lazy or already computed) result and,
    * for the `runOnGraph` path, ADJ's report.
    */
  def call(spark: SparkSession, graph: DataFrame): (DataFrame, Option[Adj.Report]) =
    if (viaSql) (spark.sql(sqlText), None)
    else {
      val (df, report) = Adj.runOnGraph(spark, query, graph, config)
      (df, Some(report))
    }
}

object Workload {

  /** Sampling budget of the Tables II–IV benches. */
  val Samples = 100

  /** Temp view the SQL workload's text reads. */
  val EdgeView = "edges"

  val all: Seq[Workload] = Seq(
    // Optimizer- and pre-compute-bound: GHD, sampling, Alg. 2 and bag joins
    // do most of the work; Leapfrog and output do little.
    Workload("as-q6-coopt", "Q6", Adj.CoOptimization, viaSql = false),
    // Output-bound: millions of rows through AdjJoinExec's per-row
    // conversion and the consumer's re-evaluation.
    Workload("as-q4-sql", "Q4", Adj.CoOptimization, viaSql = true),
    // Intersection-bound HCubeJ baseline: the optimizer is bypassed, so it
    // is the "no change" control for optimizer work.
    Workload("as-q5-commfirst", "Q5", Adj.CommunicationFirst, viaSql = false),
  )

  val byName: Map[String, Workload] = all.map(w => w.name -> w).toMap

  /** The AS stand-in graph for a workload seed (GraphData.as_ uses 12). */
  def graphSpec(seed: Long): GraphData.Spec = GraphData.Spec("AS", 5400, 5, 0.3, seed)
}
