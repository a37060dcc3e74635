// Plan-to-operator-tree builder and the sequential reference executor.

#ifndef XPRS_EXEC_EXECUTOR_H_
#define XPRS_EXEC_EXECUTOR_H_

#include <memory>
#include <vector>

#include "exec/operators.h"
#include "exec/plan.h"

namespace xprs {

/// Builds a complete operator tree for a plan (no fragment boundaries —
/// blocking operators like Sort and the hash-join build run inline).
/// `num_partitions`/`partition_index` statically page-partition the
/// *left-most* scan of the tree; inner/build scans are executed in full.
StatusOr<std::unique_ptr<Operator>> BuildOperatorTree(
    const PlanNode& plan, const ExecContext& ctx, int num_partitions = 1,
    int partition_index = 0);

/// Convenience: build + drain. The trusted reference executor tests and
/// the parallel executor compare against.
StatusOr<std::vector<Tuple>> ExecutePlanSequential(const PlanNode& plan,
                                                   const ExecContext& ctx);

/// ExecutePlanSequential with ctx.vectorized forced on: batch-capable
/// subtrees run through the ColumnBatch operators (exec/batch_ops.h).
StatusOr<std::vector<Tuple>> ExecutePlanVectorized(const PlanNode& plan,
                                                   const ExecContext& ctx);

}  // namespace xprs

#endif  // XPRS_EXEC_EXECUTOR_H_
