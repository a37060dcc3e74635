// ParallelFragmentRun: executes one plan fragment with a crew of slave
// backends (threads) whose degree of parallelism can be adjusted while the
// fragment runs — the run-time half of the XPRS parallel executor.
//
// The driving source of the fragment's pipeline determines how its work is
// divided into granules (§2.4):
//   - sequential scan      -> pages, from one shared ScanCursor
//   - materialized input   -> tuple batches, from one shared ScanCursor
//   - unclustered index    -> key ranges (AdjustableRangeScan, Figure 6)
//
// Heap pages and temp batches go to the slaves from one dispenser per run
// (exec/scan_cursor.h): a slave takes its next granule when it finishes the
// last, so no slave owns a page. Through a buffer pool the cursor is the
// one a serial scan uses, and the run is a member of the file's scan
// convoy: it registers once, starts at the convoy's page, reads ahead
// across the stripe and recycles the pages it passes, so the file sees the
// IO of one scan while the run's CPU work spreads over its slaves.
//
// An adjustment (§2.4) re-weights the dispenser instead of running the
// Figure 5 maxpage rendezvous: raising the degree starts slots, lowering
// it makes slots >= n' exit at their next granule boundary, a slot has at
// most one thread, and Adjust never waits for the slaves. Range-partitioned
// runs keep the Figure 6 protocol, whose Adjust waits for the rendezvous.
//
// Every slave runs its own copy of the pipeline; the pipelines share the
// granules, the buffer pool, the disk array (shared memory) and one
// read-only table per hash join, built once by the first slave to open it
// (exec/shared_build.h).
// Worker outputs are concatenated; fragments rooted at a Sort re-sort the
// concatenation so the fragment's contract (sorted output) holds.

#ifndef XPRS_PARALLEL_FRAGMENT_RUN_H_
#define XPRS_PARALLEL_FRAGMENT_RUN_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/fragment.h"
#include "exec/scan_cursor.h"
#include "parallel/range_partition.h"

namespace xprs {

/// One in-flight parallel fragment execution.
class ParallelFragmentRun {
 public:
  struct Options {
    int initial_parallelism = 1;
    /// Largest parallelism an adjustment may set.
    int max_slots = 16;
    ExecContext ctx;
  };

  ParallelFragmentRun(const FragmentGraph* graph, int frag_id,
                      std::map<int, const TempResult*> inputs,
                      const Options& options);
  ~ParallelFragmentRun();

  ParallelFragmentRun(const ParallelFragmentRun&) = delete;
  ParallelFragmentRun& operator=(const ParallelFragmentRun&) = delete;

  /// Spawns the initial slaves. Call once.
  Status Start();

  /// Master side: dynamically adjusts the degree of parallelism (§2.4).
  /// Ignored after the fragment finished. Does not wait for the slaves,
  /// except on a range-partitioned run (the Figure 6 rendezvous).
  void Adjust(int new_parallelism);

  /// Called (from a slave thread) when the last slave finishes. Set before
  /// Start().
  void set_on_finish(std::function<void()> cb) { on_finish_ = std::move(cb); }

  /// Blocks until all slaves are done, then returns the merged result.
  StatusOr<TempResult> Wait();

  /// Fraction of driving granules handed out, in [0, 1].
  double Progress() const;

  /// True once every slave has finished.
  bool finished() const;

  /// Current degree of parallelism.
  int parallelism() const;

  int num_adjustments() const;

 private:
  void SlaveMain(int slot);
  // Whether slot `slot` runs its pipeline again after it ended: the slot
  // is still below the degree and granules are left.
  bool KeepSlotLocked(int slot) const;
  void SpawnLocked(int slot);
  StatusOr<std::unique_ptr<Operator>> BuildPipeline(int slot);

  const FragmentGraph* const graph_;
  const int frag_id_;
  const std::map<int, const TempResult*> inputs_;
  const Options options_;

  // The granules: pages or temp batches from `granules_`, or key ranges
  // from `range_scan_`, per the driving leaf kind.
  ScanCursor granules_;
  std::unique_ptr<AdjustableRangeScan> range_scan_;
  const PlanNode* driving_leaf_ = nullptr;
  bool driving_is_temp_ = false;
  uint32_t total_granules_ = 0;
  // Slots below it take granules; read by the slaves without the mutex.
  std::atomic<int> degree_{0};

  // The run's hash-join tables; a re-created run builds afresh.
  SharedHashBuilds shared_builds_;

  // Wall-clock bounds (ProfileNowNs) for the profile's FragmentStats:
  // Start() to last-slave-finished.
  uint64_t start_ns_ = 0;
  uint64_t finish_ns_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  std::vector<Tuple> output_;
  Status first_error_;
  int running_slaves_ = 0;
  std::vector<bool> slot_running_;  // by slot; granule runs only
  std::atomic<int> num_adjustments_{0};  // granule runs only
  bool started_ = false;
  bool finished_ = false;
  std::function<void()> on_finish_;
};

}  // namespace xprs

#endif  // XPRS_PARALLEL_FRAGMENT_RUN_H_
