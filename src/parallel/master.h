// ParallelMaster: the XPRS master backend (Figure 2).
//
// Takes a batch of optimized queries, decomposes each plan into fragments,
// estimates their TaskProfiles with the cost model, and drives the
// adaptive scheduler against *real* slave-backend threads: StartTask spawns
// a ParallelFragmentRun at the commanded degree of parallelism,
// AdjustParallelism triggers the §2.4 shared-memory adjustment protocol on
// the running fragment, and fragment completions feed back into the
// scheduler, which re-pairs and re-balances.
//
// The slaves are real threads on the host's cores: a real run describes
// the host with MachineConfig::num_cpus = nproc (perfbench does), and
// MasterOptions::max_slots caps every fragment run. Only the figure
// benches, which run the scheduler inside the fluid simulator, use the
// paper's machine (DESIGN.md).

#ifndef XPRS_PARALLEL_MASTER_H_
#define XPRS_PARALLEL_MASTER_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "opt/cost_model.h"
#include "parallel/fragment_run.h"
#include "sched/scheduler.h"

namespace xprs {

/// One query handed to the master: a sequential plan to parallelize.
struct QueryJob {
  const PlanNode* plan = nullptr;
  int64_t query_id = 0;
};

/// Outcome of a master run.
struct MasterRunResult {
  double elapsed_seconds = 0.0;
  /// Final output tuples per query.
  std::map<int64_t, std::vector<Tuple>> query_results;
  /// Dynamic adjustments issued by the scheduler.
  size_t num_adjustments = 0;
  /// Wall-clock finish time (seconds since run start) per task.
  std::map<TaskId, double> task_finish_times;
  /// The scheduler's full decision log (starts and adjustments, in order);
  /// the differential harness validates it with ValidateSchedDecisions.
  std::vector<SchedDecision> decisions;
};

/// Master backend options.
struct MasterOptions {
  SchedulerOptions sched;
  ExecContext ctx;
  /// Upper bound on slave slots per fragment run: the scheduler's
  /// commanded degrees (start, adjustment) are clamped to it.
  int max_slots = 16;
  /// Trace/metrics publishing for the run (fragment spans, adjustment
  /// events); also handed to the internal scheduler. Optional.
  Observability obs;
};

/// The master backend. Not reusable across Run() calls concurrently.
class ParallelMaster : public ExecutionEnv {
 public:
  ParallelMaster(const MachineConfig& machine, const CostModel* model,
                 const MasterOptions& options);

  /// Runs all queries to completion under the configured policy. A
  /// failed fragment run fails the whole call: the outstanding runs are
  /// drained (no pins survive) and the run's status is returned, for the
  /// caller's statement retry to decide on.
  StatusOr<MasterRunResult> Run(const std::vector<QueryJob>& queries);

  // --- ExecutionEnv (invoked by the scheduler on the master thread) ---
  double Now() const override;
  void StartTask(TaskId id, double parallelism) override;
  void AdjustParallelism(TaskId id, double parallelism) override;
  double RemainingSeqTime(TaskId id) const override;

 private:
  struct TaskState {
    int query_index = -1;
    int frag_id = -1;
    TaskProfile profile;
    std::unique_ptr<ParallelFragmentRun> run;
    TempResult result;
    bool completed = false;
    /// Wait() was called on `run` (its threads are joined and its result
    /// consumed); guards against double-draining.
    bool waited = false;
  };
  struct QueryState {
    QueryJob job;
    FragmentGraph graph;
    std::vector<TaskId> task_ids;  // per fragment id
  };

  /// Task ids are query_index * kTaskIdStride + fragment id.
  static constexpr TaskId kTaskIdStride = 1000;

  /// A commanded degree of parallelism, rounded and clamped to
  /// [1, max_slots].
  int Degree(double parallelism) const;
  /// Materialized inputs from the task's completed dependency fragments.
  std::map<int, const TempResult*> GatherInputs(const TaskState& task);
  /// Publishes a cancel / deadline event when `status` is one.
  void EmitCancelEvent(const Status& status);
  /// Joins every started-but-unconsumed run (cancellation/failure exit:
  /// slaves observe the token or finish; pins drain before Run returns).
  void DrainOutstanding();

  MachineConfig machine_;
  const CostModel* const model_;
  MasterOptions options_;

  std::vector<QueryState> queries_;
  std::map<TaskId, TaskState> tasks_;
  std::chrono::steady_clock::time_point start_;

  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  std::deque<TaskId> done_queue_;
};

}  // namespace xprs

#endif  // XPRS_PARALLEL_MASTER_H_
