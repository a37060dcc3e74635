// Hash-join builds shared by the slaves of one parallel fragment run.
//
// A hash join's build side is never partitioned: every slave of a run
// builds from the same rows (FragmentGraph::Decompose makes them the
// producing fragment's materialized TempResult). Instead of each slave
// building a private copy of the table, the first slave to Open a join
// builds it into the join's SharedHashBuild; the others block until it is
// ready and then probe the same table read-only. A failed build is
// remembered, so every slave of the run fails the same way; the statement
// retry's next attempt creates a new run, and with it fresh builds.

#ifndef XPRS_EXEC_SHARED_BUILD_H_
#define XPRS_EXEC_SHARED_BUILD_H_

#include <map>
#include <memory>
#include <mutex>

#include "exec/plan.h"
#include "util/status.h"

namespace xprs {

/// One hash join's table, built once and then shared read-only.
class SharedHashBuild {
 public:
  /// Returns the table, running `build(Table*)` into a fresh one first if
  /// no caller has yet. Concurrent callers block until the first build
  /// finished and then see its table, or its failure. Every caller of one
  /// instance must ask for the same Table type.
  template <typename Table, typename Build>
  StatusOr<const Table*> GetOrBuild(Build&& build) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!done_) {
      auto table = std::make_shared<Table>();
      status_ = build(table.get());
      table_ = std::move(table);
      done_ = true;
    }
    if (!status_.ok()) return status_;
    return static_cast<const Table*>(table_.get());
  }

 private:
  std::mutex mutex_;
  bool done_ = false;
  Status status_;
  std::shared_ptr<const void> table_;
};

/// The shared builds of one fragment run, one per hash-join plan node.
class SharedHashBuilds {
 public:
  SharedHashBuild* For(const PlanNode* join) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<SharedHashBuild>& build = builds_[join];
    if (build == nullptr) build = std::make_unique<SharedHashBuild>();
    return build.get();
  }

 private:
  std::mutex mutex_;
  std::map<const PlanNode*, std::unique_ptr<SharedHashBuild>> builds_;
};

}  // namespace xprs

#endif  // XPRS_EXEC_SHARED_BUILD_H_
