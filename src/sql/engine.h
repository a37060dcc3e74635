// SqlEngine: binds parsed SQL against a catalog, optimizes it with the
// two-phase optimizer, executes the plan, and projects the requested
// columns — the front door a downstream user talks to.

#ifndef XPRS_SQL_ENGINE_H_
#define XPRS_SQL_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "opt/two_phase.h"
#include "parallel/master.h"
#include "sql/parser.h"

namespace xprs {

/// Result of one statement.
struct SqlResult {
  Schema schema;
  std::vector<Tuple> rows;
  /// Optimizer figures for the executed plan.
  double seqcost = 0.0;
  double parcost = 0.0;
  /// Pretty-printed physical plan (EXPLAIN-style).
  std::string plan_text;

  /// EXPLAIN ANALYZE only: annotated plan with actual rows/pages/time next
  /// to the optimizer estimates, plus the fragment / adjustment-timeline /
  /// utilization sections for parallel runs. Empty otherwise.
  std::string analyze_text;
  /// EXPLAIN ANALYZE only: the same report as a JSON document.
  std::string analyze_json;
  /// EXPLAIN ANALYZE only: the raw profile behind the reports.
  std::shared_ptr<QueryProfile> profile;

  std::string ToString() const;
};

/// A statement bound and optimized once. Immutable after Prepare, so the
/// serving layer's admission estimate, every retry of the statement and
/// the profiles of its runs all share one plan.
struct PreparedStatement {
  std::string sql;
  /// The plan to run: the optimizer's plan, under the aggregate when the
  /// statement selects one. Profiles keep it alive past the statement.
  std::shared_ptr<const PlanNode> plan;
  /// The optimizer's plan itself (a node of `plan`): what admission
  /// estimates.
  const PlanNode* optimized = nullptr;
  double seqcost = 0.0;
  double parcost = 0.0;
  /// Result schema, and the plan output column behind each result column.
  /// `columns` is empty for an aggregate, whose output is the result.
  Schema schema;
  std::vector<size_t> columns;
  /// EXPLAIN / EXPLAIN ANALYZE prefixes.
  bool explain = false;
  bool analyze = false;
};

/// The engine.
///
/// Every string entry point prepares the statement and runs the prepared
/// form; callers that run one statement more than once (the serving
/// layer: admission, then each retry) prepare it themselves.
///
/// Thread-safety: the engine holds no per-statement state — Prepare and
/// the runs build everything (binder output, optimizer, operator trees,
/// parallel master) on the caller's stack or in the immutable
/// PreparedStatement — so concurrent statements from different threads
/// are safe, provided the catalog follows its DDL-then-serve discipline
/// (see storage/catalog.h): tables referenced by in-flight queries must
/// not be loaded, re-indexed or re-analyzed concurrently. The catalog's name map takes its own lock, the
/// cost model is immutable, and the storage read paths (disk array, buffer
/// pool, heap file, B+tree) are shared by parallel slaves already. The
/// serving layer (src/serve) relies on this to run one engine under N
/// sessions.
class SqlEngine {
 public:
  SqlEngine(Catalog* catalog, const MachineConfig& machine,
            const CostModel* model);

  /// Parses, optimizes (bushy two-phase by default) and executes `sql`.
  /// A ctx.cancel token (or deadline) is honored from planning onwards:
  /// the statement returns Cancelled / DeadlineExceeded with zero pinned
  /// frames instead of running to completion.
  StatusOr<SqlResult> Execute(const std::string& sql,
                              const ExecContext& ctx = ExecContext(),
                              TreeShape shape = TreeShape::kBushy);

  /// Parses and optimizes only; plan_text / costs are filled, rows empty.
  StatusOr<SqlResult> Explain(const std::string& sql,
                              TreeShape shape = TreeShape::kBushy);

  /// Like Execute, but runs the plan through the master backend: fragments
  /// are scheduled by the adaptive algorithm and executed by real slave
  /// threads with dynamic parallelism adjustment.
  StatusOr<SqlResult> ExecuteParallel(
      const std::string& sql, const MasterOptions& options = MasterOptions(),
      TreeShape shape = TreeShape::kBushy);

  /// EXPLAIN ANALYZE: executes `sql` with a QueryProfile attached and fills
  /// analyze_text / analyze_json / profile (actual-vs-estimated per
  /// operator). The SQL text itself may also carry an `EXPLAIN ANALYZE`
  /// prefix through Execute / ExecuteParallel with the same effect.
  StatusOr<SqlResult> ExplainAnalyze(const std::string& sql,
                                     const ExecContext& ctx = ExecContext(),
                                     TreeShape shape = TreeShape::kBushy);

  /// EXPLAIN ANALYZE through the parallel master: the report additionally
  /// carries per-fragment stats and the §2.4 adjustment timeline.
  StatusOr<SqlResult> ExplainAnalyzeParallel(
      const std::string& sql, const MasterOptions& options = MasterOptions(),
      TreeShape shape = TreeShape::kBushy);

  /// Admission-time resource estimate for the serving layer (src/serve):
  /// parses and optimizes `sql` and reports the whole plan viewed as one
  /// task — estimated sequential time T, total page reads D, the dominant
  /// i/o pattern (random as soon as the plan index-scans), and working
  /// memory summed over the plan's fragments (hash tables, sort buffers,
  /// in 8 KB pages). Never executes anything.
  StatusOr<TaskProfile> EstimateProfile(const std::string& sql,
                                        TreeShape shape = TreeShape::kBushy);

  /// Parses, binds and optimizes `sql` once: every planning error surfaces
  /// here, none at run time.
  StatusOr<std::shared_ptr<const PreparedStatement>> Prepare(
      const std::string& sql, TreeShape shape = TreeShape::kBushy) const;

  /// Execute / ExecuteParallel of a prepared statement; `analyze` forces
  /// EXPLAIN ANALYZE as ExplainAnalyze[Parallel] does.
  StatusOr<SqlResult> Execute(const PreparedStatement& stmt,
                              const ExecContext& ctx, bool analyze = false);
  StatusOr<SqlResult> ExecuteParallel(const PreparedStatement& stmt,
                                      const MasterOptions& options,
                                      bool analyze = false);

  /// EstimateProfile of a prepared statement (plans nothing).
  TaskProfile EstimateProfile(const PreparedStatement& stmt) const;

 private:
  struct Bound {
    QuerySpec spec;
    ParsedQuery parsed;
  };

  StatusOr<Bound> Bind(const std::string& sql) const;

  // Resolves a column reference to (relation index, column index).
  StatusOr<std::pair<int, size_t>> ResolveColumn(
      const Bound& bound, const SqlColumnRef& ref) const;

  // Position of (rel, col) in an optimized plan's output, via its colmap.
  static StatusOr<size_t> OutputIndex(
      const std::vector<std::pair<int, size_t>>& colmap, int rel, size_t col);

  // Prepare + Run: the body of the string entry points that execute.
  StatusOr<SqlResult> PrepareAndRun(const std::string& sql,
                                    const ExecContext& ctx, TreeShape shape,
                                    const MasterOptions* master,
                                    bool force_analyze);

  // Runs `stmt` serially under `ctx`, or through the master when `master`
  // is set (`ctx` is then master->ctx); a null `ctx` only explains.
  StatusOr<SqlResult> Run(const PreparedStatement& stmt,
                          const ExecContext* ctx, const MasterOptions* master,
                          bool force_analyze);

  Catalog* const catalog_;
  MachineConfig machine_;
  const CostModel* const model_;
};

}  // namespace xprs

#endif  // XPRS_SQL_ENGINE_H_
