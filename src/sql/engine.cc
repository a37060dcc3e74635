#include "sql/engine.h"

#include <algorithm>
#include <functional>

#include "util/check.h"
#include "util/str.h"

namespace xprs {

namespace {

// Writes every node's cumulative optimizer estimate into the profile so
// EXPLAIN ANALYZE can print actual-vs-estimated side by side.
void AnnotateEstimates(const CostModel& model, const PlanNode& node,
                       QueryProfile* profile) {
  PlanEstimate est = model.Estimate(node);
  profile->SetEstimate(&node, est.rows, est.ios, est.seq_time);
  if (node.left) AnnotateEstimates(model, *node.left, profile);
  if (node.right) AnnotateEstimates(model, *node.right, profile);
}

// Estimated CPU/disk utilization timeline: run the adaptive scheduler over
// the plan's fragment profiles in the fluid resource model — the same
// machinery parcost uses — and sample its utilization trace.
void AnnotateUtilization(const MachineConfig& machine, const CostModel& model,
                         const PlanNode& plan, const SchedulerOptions& sched,
                         QueryProfile* profile) {
  FragmentGraph graph = FragmentGraph::Decompose(plan);
  std::vector<TaskProfile> tasks =
      model.FragmentProfiles(graph, /*query_id=*/0, /*id_base=*/0);
  FluidSimulator sim(machine);
  AdaptiveScheduler scheduler(machine, sched);
  SimResult result = sim.Run(&scheduler, tasks);
  if (!result.ok()) return;  // estimate only; profile stays usable
  for (const SimTraceSample& s : sim.trace()) {
    UtilSample sample;
    sample.time = s.time;
    sample.duration = s.duration;
    sample.cpus_busy = s.cpus_busy;
    sample.io_rate = s.io_rate;
    sample.effective_bw = s.effective_bw;
    sample.tasks_running = s.tasks_running;
    profile->AddUtilSample(sample);
  }
}

}  // namespace

std::string SqlResult::ToString() const {
  std::string out = schema.ToString() + "\n";
  for (const auto& row : rows) {
    out += row.ToString();
    out += '\n';
  }
  return out;
}

SqlEngine::SqlEngine(Catalog* catalog, const MachineConfig& machine,
                     const CostModel* model)
    : catalog_(catalog), machine_(machine), model_(model) {
  XPRS_CHECK(catalog != nullptr);
  XPRS_CHECK(model != nullptr);
}

StatusOr<std::pair<int, size_t>> SqlEngine::ResolveColumn(
    const Bound& bound, const SqlColumnRef& ref) const {
  int found_rel = -1;
  size_t found_col = 0;
  for (size_t i = 0; i < bound.parsed.from.size(); ++i) {
    const SqlTableRef& t = bound.parsed.from[i];
    if (!ref.qualifier.empty() && ref.qualifier != t.alias) continue;
    const Schema& schema = bound.spec.relations[i].table->schema();
    auto col = schema.ColumnIndex(ref.column);
    if (!col.ok()) {
      if (!ref.qualifier.empty())
        return Status::InvalidArgument(
            StrFormat("no column '%s' in %s", ref.column.c_str(),
                      t.alias.c_str()));
      continue;
    }
    if (found_rel >= 0)
      return Status::InvalidArgument("ambiguous column '" + ref.column + "'");
    found_rel = static_cast<int>(i);
    found_col = col.value();
    if (!ref.qualifier.empty()) break;
  }
  if (found_rel < 0)
    return Status::InvalidArgument("unknown column '" + ref.ToString() + "'");
  return std::make_pair(found_rel, found_col);
}

StatusOr<size_t> SqlEngine::OutputIndex(
    const std::vector<std::pair<int, size_t>>& colmap, int rel, size_t col) {
  for (size_t i = 0; i < colmap.size(); ++i)
    if (colmap[i].first == rel && colmap[i].second == col) return i;
  return Status::Internal("column lost during optimization");
}

StatusOr<SqlEngine::Bound> SqlEngine::Bind(const std::string& sql) const {
  XPRS_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseSql(sql));

  Bound bound;
  bound.parsed = std::move(parsed);

  // FROM: resolve tables, reject duplicate aliases.
  for (const SqlTableRef& ref : bound.parsed.from) {
    XPRS_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(ref.table));
    bound.spec.relations.push_back({table, Predicate()});
  }
  for (size_t i = 0; i < bound.parsed.from.size(); ++i)
    for (size_t j = i + 1; j < bound.parsed.from.size(); ++j)
      if (bound.parsed.from[i].alias == bound.parsed.from[j].alias)
        return Status::InvalidArgument("duplicate table alias '" +
                                       bound.parsed.from[i].alias + "'");

  // WHERE conjuncts: selections attach to their relation; joins go to the
  // equi-join graph.
  for (const SqlCondition& cond : bound.parsed.where) {
    XPRS_ASSIGN_OR_RETURN(auto lhs, ResolveColumn(bound, cond.lhs));
    switch (cond.kind) {
      case SqlCondition::Kind::kCompare: {
        Predicate p = Predicate::Compare(lhs.second, cond.op, cond.constant);
        Predicate& existing = bound.spec.relations[lhs.first].pred;
        existing = Predicate::And(existing, p);
        break;
      }
      case SqlCondition::Kind::kBetween: {
        Predicate p = Predicate::Between(lhs.second, cond.lo, cond.hi);
        Predicate& existing = bound.spec.relations[lhs.first].pred;
        existing = Predicate::And(existing, p);
        break;
      }
      case SqlCondition::Kind::kJoin: {
        XPRS_ASSIGN_OR_RETURN(auto rhs, ResolveColumn(bound, cond.rhs));
        if (lhs.first == rhs.first)
          return Status::InvalidArgument(
              "self-comparison within one relation is not a join");
        bound.spec.joins.push_back(
            {lhs.first, lhs.second, rhs.first, rhs.second});
        break;
      }
    }
  }
  return bound;
}

StatusOr<std::shared_ptr<const PreparedStatement>> SqlEngine::Prepare(
    const std::string& sql, TreeShape shape) const {
  XPRS_ASSIGN_OR_RETURN(Bound bound, Bind(sql));
  const ParsedQuery& parsed = bound.parsed;

  // Validate the select list shape.
  size_t num_aggs = 0;
  for (const auto& item : parsed.select)
    num_aggs += item.kind == SqlSelectItem::Kind::kAggregate;
  if (num_aggs > 1)
    return Status::Unimplemented("at most one aggregate per query");
  if (num_aggs == 1 && parsed.select.size() != 1)
    return Status::Unimplemented(
        "an aggregate query selects exactly the aggregate");
  if (parsed.group_by.has_value() && num_aggs == 0)
    return Status::InvalidArgument("GROUP BY requires an aggregate");

  TwoPhaseOptimizer optimizer(machine_, model_);
  XPRS_ASSIGN_OR_RETURN(OptimizedQuery optimized,
                        optimizer.Optimize(bound.spec, shape));

  auto stmt = std::make_shared<PreparedStatement>();
  stmt->sql = sql;
  stmt->seqcost = optimized.seqcost;
  stmt->parcost = optimized.parcost;
  stmt->explain = parsed.explain;
  stmt->analyze = parsed.analyze;
  std::unique_ptr<PlanNode> plan = std::move(optimized.plan);
  stmt->optimized = plan.get();

  if (num_aggs == 1) {
    // Wrap the aggregate on top; its output is the result.
    const SqlSelectItem& agg = parsed.select[0];
    XPRS_ASSIGN_OR_RETURN(auto agg_rc, ResolveColumn(bound, agg.column));
    XPRS_ASSIGN_OR_RETURN(
        size_t agg_out,
        OutputIndex(optimized.colmap, agg_rc.first, agg_rc.second));
    int group_out = -1;
    if (parsed.group_by.has_value()) {
      XPRS_ASSIGN_OR_RETURN(auto g_rc,
                            ResolveColumn(bound, *parsed.group_by));
      XPRS_ASSIGN_OR_RETURN(
          size_t g_out,
          OutputIndex(optimized.colmap, g_rc.first, g_rc.second));
      group_out = static_cast<int>(g_out);
    }
    plan = MakeAggregate(std::move(plan), agg.func, agg_out, group_out);
    stmt->schema = plan->output_schema;
    stmt->plan = std::move(plan);
    return std::shared_ptr<const PreparedStatement>(std::move(stmt));
  }

  // Projection: * expands to every column with qualified names; explicit
  // columns project through the optimizer's colmap.
  std::vector<Column> out_schema;
  auto qualified_name = [&](size_t output_index) {
    auto [rel, col] = optimized.colmap[output_index];
    return parsed.from[rel].alias + "." +
           bound.spec.relations[rel].table->schema().column(col).name;
  };
  for (const auto& item : parsed.select) {
    if (item.kind == SqlSelectItem::Kind::kStar) {
      for (size_t i = 0; i < optimized.colmap.size(); ++i) {
        stmt->columns.push_back(i);
        auto [rel, col] = optimized.colmap[i];
        out_schema.push_back(
            {qualified_name(i),
             bound.spec.relations[rel].table->schema().column(col).type});
      }
      continue;
    }
    XPRS_ASSIGN_OR_RETURN(auto rc, ResolveColumn(bound, item.column));
    XPRS_ASSIGN_OR_RETURN(size_t idx,
                          OutputIndex(optimized.colmap, rc.first, rc.second));
    stmt->columns.push_back(idx);
    out_schema.push_back(
        {qualified_name(idx),
         bound.spec.relations[rc.first].table->schema().column(rc.second)
             .type});
  }
  stmt->schema = Schema(std::move(out_schema));
  stmt->plan = std::move(plan);
  return std::shared_ptr<const PreparedStatement>(std::move(stmt));
}

StatusOr<SqlResult> SqlEngine::Run(const PreparedStatement& stmt,
                                   const ExecContext* ctx,
                                   const MasterOptions* master,
                                   bool force_analyze) {
  // Fail fast on an already-cancelled or expired query: planning time
  // counts against the deadline too. The token also rides ctx into the
  // executors, which poll it at every batch boundary.
  if (ctx != nullptr && ctx->cancel != nullptr)
    XPRS_RETURN_IF_ERROR(ctx->cancel->Check());

  // Inline EXPLAIN [ANALYZE] prefixes: plain EXPLAIN degrades to plan-only;
  // ANALYZE executes with profiling attached.
  const bool analyze = force_analyze || stmt.analyze;
  if (stmt.explain && !analyze) ctx = nullptr;

  const PlanNode* planp = stmt.plan.get();
  SqlResult result;
  result.seqcost = stmt.seqcost;
  result.parcost = stmt.parcost;
  result.plan_text = planp->ToString();

  if (ctx == nullptr) {  // EXPLAIN
    result.schema = planp->output_schema;
    return result;
  }

  // EXPLAIN ANALYZE: build the profile over the final plan (aggregate
  // included), annotate per-node estimates and the fluid-sim utilization
  // timeline, and attach it to the execution context(s).
  std::shared_ptr<QueryProfile> profile;
  ExecContext profiled_ctx;
  MasterOptions profiled_master;
  if (analyze) {
    profile = std::make_shared<QueryProfile>(planp);
    AnnotateEstimates(*model_, *planp, profile.get());
    AnnotateUtilization(machine_, *model_, *planp,
                        master != nullptr ? master->sched : SchedulerOptions(),
                        profile.get());
    profile->AdoptPlan(stmt.plan);
    profiled_ctx = *ctx;
    profiled_ctx.profile = profile.get();
    ctx = &profiled_ctx;
    if (master != nullptr) {
      profiled_master = *master;
      profiled_master.ctx.profile = profile.get();
      master = &profiled_master;
    }
  }

  std::vector<Tuple> rows;
  if (master != nullptr) {
    // Parallel path: fragments of the plan run on slave-backend threads
    // under the adaptive scheduler.
    ParallelMaster backend(machine_, model_, *master);
    XPRS_ASSIGN_OR_RETURN(MasterRunResult run,
                          backend.Run({{planp, /*query_id=*/0}}));
    rows = std::move(run.query_results.at(0));
  } else {
    XPRS_ASSIGN_OR_RETURN(rows, ExecutePlanSequential(*planp, *ctx));
  }

  if (profile != nullptr) {
    result.analyze_text = profile->ToText();
    result.analyze_json = profile->ToJson();
    result.profile = profile;
    // Reconcile with any attached observability: publish profile.* counters
    // and the utilization timeline next to the scheduler's own events.
    if (master != nullptr) {
      profile->PublishMetrics(master->obs.metrics);
      profile->EmitTrace(master->obs.trace);
    }
  }

  result.schema = stmt.schema;
  if (stmt.columns.empty()) {
    result.rows = std::move(rows);
    return result;
  }
  result.rows.reserve(rows.size());
  for (const Tuple& row : rows) {
    std::vector<Value> values;
    values.reserve(stmt.columns.size());
    for (size_t idx : stmt.columns) values.push_back(row.value(idx));
    result.rows.push_back(Tuple(std::move(values)));
  }
  return result;
}

StatusOr<SqlResult> SqlEngine::PrepareAndRun(const std::string& sql,
                                             const ExecContext& ctx,
                                             TreeShape shape,
                                             const MasterOptions* master,
                                             bool force_analyze) {
  XPRS_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedStatement> stmt,
                        Prepare(sql, shape));
  return Run(*stmt, &ctx, master, force_analyze);
}

StatusOr<SqlResult> SqlEngine::Execute(const std::string& sql,
                                       const ExecContext& ctx,
                                       TreeShape shape) {
  return PrepareAndRun(sql, ctx, shape, nullptr, /*force_analyze=*/false);
}

StatusOr<SqlResult> SqlEngine::Explain(const std::string& sql,
                                       TreeShape shape) {
  XPRS_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedStatement> stmt,
                        Prepare(sql, shape));
  return Run(*stmt, nullptr, nullptr, /*force_analyze=*/false);
}

StatusOr<SqlResult> SqlEngine::ExecuteParallel(const std::string& sql,
                                               const MasterOptions& options,
                                               TreeShape shape) {
  return PrepareAndRun(sql, options.ctx, shape, &options,
                       /*force_analyze=*/false);
}

StatusOr<SqlResult> SqlEngine::ExplainAnalyze(const std::string& sql,
                                              const ExecContext& ctx,
                                              TreeShape shape) {
  return PrepareAndRun(sql, ctx, shape, nullptr, /*force_analyze=*/true);
}

StatusOr<SqlResult> SqlEngine::ExplainAnalyzeParallel(
    const std::string& sql, const MasterOptions& options, TreeShape shape) {
  return PrepareAndRun(sql, options.ctx, shape, &options,
                       /*force_analyze=*/true);
}

StatusOr<SqlResult> SqlEngine::Execute(const PreparedStatement& stmt,
                                       const ExecContext& ctx, bool analyze) {
  return Run(stmt, &ctx, nullptr, analyze);
}

StatusOr<SqlResult> SqlEngine::ExecuteParallel(const PreparedStatement& stmt,
                                               const MasterOptions& options,
                                               bool analyze) {
  return Run(stmt, &options.ctx, &options, analyze);
}

StatusOr<TaskProfile> SqlEngine::EstimateProfile(const std::string& sql,
                                                 TreeShape shape) {
  XPRS_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedStatement> stmt,
                        Prepare(sql, shape));
  return EstimateProfile(*stmt);
}

TaskProfile SqlEngine::EstimateProfile(const PreparedStatement& stmt) const {
  const PlanNode& plan = *stmt.optimized;

  PlanEstimate est = model_->Estimate(plan);
  TaskProfile profile;
  profile.name = stmt.sql.substr(0, 40);
  // Degenerate estimates (empty relations) still need a positive T so the
  // scheduler's io-rate classification stays defined.
  profile.seq_time = std::max(est.seq_time, 1e-6);
  profile.total_ios = est.ios;

  // The whole plan is random-io as soon as any leaf index-scans: one
  // pointer-chasing stream drags the aggregate bandwidth to the random
  // ceiling (§2.3), which is the conservative admission assumption.
  std::function<bool(const PlanNode&)> has_index_scan =
      [&](const PlanNode& node) {
        if (node.kind == PlanKind::kIndexScan) return true;
        if (node.left != nullptr && has_index_scan(*node.left)) return true;
        return node.right != nullptr && has_index_scan(*node.right);
      };
  profile.pattern = has_index_scan(plan) ? IoPattern::kRandom
                                         : IoPattern::kSequential;

  // Working memory: sum over fragments is the safe bound for a query whose
  // fragments may overlap (pipelined builds feeding a probing consumer).
  FragmentGraph graph = FragmentGraph::Decompose(plan);
  for (int id : graph.TopologicalOrder())
    profile.memory_pages += model_->FragmentMemoryPages(graph,
                                                        graph.fragment(id));
  return profile;
}

}  // namespace xprs
