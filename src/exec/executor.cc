#include "exec/executor.h"

#include "exec/batch_ops.h"
#include "exec/profile.h"
#include "exec/spill_ops.h"
#include "util/check.h"

namespace xprs {

namespace {

// `partition_leftmost` is true only along the spine from the root to the
// left-most scan: that scan drives the pipeline and is the one that gets
// page-partitioned for intra-operation parallelism.
StatusOr<std::unique_ptr<Operator>> Build(const PlanNode& plan,
                                          const ExecContext& ctx,
                                          int num_partitions,
                                          int partition_index,
                                          bool partition_leftmost) {
  // Vectorized mode: compile maximal batch-capable subtrees to the batch
  // operators. Non-vectorizable ancestors (sort, merge join, ...) fall
  // through to the tuple operators below, and their child recursion lands
  // back here — so mixed plans get a tuple crown over vectorized subtrees.
  if (ctx.vectorized &&
      VectorizableSubtree(plan, ctx, partition_leftmost, nullptr)) {
    return BuildVectorizedTree(plan, ctx, num_partitions, partition_index,
                               partition_leftmost, nullptr);
  }
  std::unique_ptr<Operator> op;
  switch (plan.kind) {
    case PlanKind::kSeqScan: {
      int n = partition_leftmost ? num_partitions : 1;
      int i = partition_leftmost ? partition_index : 0;
      op = std::make_unique<SeqScanOp>(plan.table, plan.predicate, ctx, n, i);
      break;
    }
    case PlanKind::kIndexScan:
      // Static partitioning of index scans is by key range; the sequential
      // builder runs them whole (the parallel module range-partitions).
      op = std::make_unique<IndexScanOp>(plan.table, plan.predicate,
                                         plan.index_range, ctx);
      break;
    case PlanKind::kSort: {
      XPRS_ASSIGN_OR_RETURN(
          std::unique_ptr<Operator> child,
          Build(*plan.left, ctx, num_partitions, partition_index,
                partition_leftmost));
      if (ctx.spill.temp_array != nullptr) {
        op = std::make_unique<ExternalSortOp>(std::move(child), plan.sort_key,
                                              ctx.spill);
      } else {
        op = std::make_unique<SortOp>(std::move(child), plan.sort_key);
      }
      break;
    }
    case PlanKind::kAggregate: {
      XPRS_ASSIGN_OR_RETURN(
          std::unique_ptr<Operator> child,
          Build(*plan.left, ctx, num_partitions, partition_index,
                partition_leftmost));
      op = std::make_unique<AggregateOp>(std::move(child), plan.output_schema,
                                         plan.agg_func, plan.agg_col,
                                         plan.group_col);
      break;
    }
    case PlanKind::kNestLoopJoin: {
      XPRS_ASSIGN_OR_RETURN(
          std::unique_ptr<Operator> outer,
          Build(*plan.left, ctx, num_partitions, partition_index,
                partition_leftmost));
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> inner,
                            Build(*plan.right, ctx, 1, 0, false));
      op = std::make_unique<NestLoopJoinOp>(std::move(outer), std::move(inner),
                                            plan.left_key, plan.right_key);
      break;
    }
    case PlanKind::kMergeJoin: {
      XPRS_ASSIGN_OR_RETURN(
          std::unique_ptr<Operator> outer,
          Build(*plan.left, ctx, num_partitions, partition_index,
                partition_leftmost));
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> inner,
                            Build(*plan.right, ctx, 1, 0, false));
      op = std::make_unique<MergeJoinOp>(std::move(outer), std::move(inner),
                                         plan.left_key, plan.right_key);
      break;
    }
    case PlanKind::kHashJoin: {
      XPRS_ASSIGN_OR_RETURN(
          std::unique_ptr<Operator> outer,
          Build(*plan.left, ctx, num_partitions, partition_index,
                partition_leftmost));
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> inner,
                            Build(*plan.right, ctx, 1, 0, false));
      if (ctx.spill.temp_array != nullptr) {
        op = std::make_unique<GraceHashJoinOp>(std::move(outer),
                                               std::move(inner), plan.left_key,
                                               plan.right_key, ctx.spill);
      } else {
        op = std::make_unique<HashJoinOp>(std::move(outer), std::move(inner),
                                          plan.left_key, plan.right_key);
      }
      break;
    }
  }
  if (op == nullptr) return Status::Internal("unknown plan kind");
  return MaybeCancelGuard(MaybeProfile(std::move(op), &plan, ctx.profile),
                          ctx.cancel);
}

}  // namespace

StatusOr<std::unique_ptr<Operator>> BuildOperatorTree(const PlanNode& plan,
                                                      const ExecContext& ctx,
                                                      int num_partitions,
                                                      int partition_index) {
  return Build(plan, ctx, num_partitions, partition_index,
               /*partition_leftmost=*/true);
}

StatusOr<std::vector<Tuple>> ExecutePlanSequential(const PlanNode& plan,
                                                   const ExecContext& ctx) {
  XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> root,
                        BuildOperatorTree(plan, ctx));
  return Drain(root.get());
}

StatusOr<std::vector<Tuple>> ExecutePlanVectorized(const PlanNode& plan,
                                                   const ExecContext& ctx) {
  ExecContext vectorized_ctx = ctx;
  vectorized_ctx.vectorized = true;
  return ExecutePlanSequential(plan, vectorized_ctx);
}

}  // namespace xprs
