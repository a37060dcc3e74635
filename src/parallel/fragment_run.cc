#include "parallel/fragment_run.h"

#include <algorithm>

#include "parallel/driven_ops.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/str.h"

namespace xprs {

ParallelFragmentRun::ParallelFragmentRun(
    const FragmentGraph* graph, int frag_id,
    std::map<int, const TempResult*> inputs, const Options& options)
    : graph_(graph),
      frag_id_(frag_id),
      inputs_(std::move(inputs)),
      options_(options) {
  XPRS_CHECK(graph != nullptr);
  XPRS_CHECK_GE(options.initial_parallelism, 1);
  XPRS_CHECK_GE(options.max_slots, options.initial_parallelism);

  driving_leaf_ = DrivingLeaf(*graph_, frag_id_);
  const Fragment& frag = graph_->fragment(frag_id_);
  auto blocked = frag.blocked_inputs.find(driving_leaf_);

  if (blocked != frag.blocked_inputs.end()) {
    // Driving source is a materialized input: hand out its batches.
    driving_is_temp_ = true;
    const TempResult* temp = inputs_.at(blocked->second);
    total_granules_ = DrivenTempSourceOp::NumBatches(temp->tuples.size());
  } else if (driving_leaf_->kind == PlanKind::kSeqScan) {
    total_granules_ = driving_leaf_->table->file().num_pages();
  } else {
    XPRS_CHECK(driving_leaf_->kind == PlanKind::kIndexScan);
    const BTreeIndex* index = driving_leaf_->table->index();
    total_granules_ = static_cast<uint32_t>(index->CountRange(
        driving_leaf_->index_range.lo, driving_leaf_->index_range.hi));
    range_scan_ = std::make_unique<AdjustableRangeScan>(
        index, driving_leaf_->index_range, options.initial_parallelism,
        options.max_slots);
  }
  degree_.store(options.initial_parallelism);
  slot_running_.assign(options.max_slots, false);
}

ParallelFragmentRun::~ParallelFragmentRun() {
  for (auto& t : threads_)
    if (t.joinable()) t.join();
}

StatusOr<std::unique_ptr<Operator>> ParallelFragmentRun::BuildPipeline(
    int slot) {
  ExecContext ctx = options_.ctx;
  ctx.shared_builds = &shared_builds_;
  const SlaveGranules granules{&granules_, &degree_, slot};
  DrivingLeafFactory factory =
      [this, slot, granules](
          const PlanNode* leaf) -> StatusOr<std::unique_ptr<Operator>> {
    if (driving_is_temp_) {
      // Not profiled: a temp source re-emits the producing fragment's
      // already-counted output.
      const Fragment& frag = graph_->fragment(frag_id_);
      const TempResult* temp = inputs_.at(frag.blocked_inputs.at(leaf));
      return std::unique_ptr<Operator>(
          std::make_unique<DrivenTempSourceOp>(temp, granules));
    }
    if (leaf->kind == PlanKind::kSeqScan) {
      return MaybeProfile(std::make_unique<DrivenSeqScanOp>(
                              leaf->table, leaf->predicate, granules),
                          leaf, options_.ctx.profile);
    }
    return MaybeProfile(
        std::make_unique<DrivenIndexScanOp>(leaf->table, leaf->predicate,
                                            options_.ctx, range_scan_.get(),
                                            slot),
        leaf, options_.ctx.profile);
  };
  return BuildFragmentOperatorsWithDriver(*graph_, frag_id_, inputs_, ctx,
                                          factory);
}

bool ParallelFragmentRun::KeepSlotLocked(int slot) const {
  return range_scan_ == nullptr && first_error_.ok() &&
         slot < degree_.load() && !granules_.exhausted();
}

void ParallelFragmentRun::SlaveMain(int slot) {
  bool is_last = false;
  for (bool again = true; again;) {
    auto pipeline = BuildPipeline(slot);
    std::vector<Tuple> local;
    Status status = pipeline.ok() ? Status::OK() : pipeline.status();
    if (status.ok()) {
      auto rows = Drain(pipeline.value().get());
      if (rows.ok()) {
        local = std::move(rows).value();
      } else {
        status = rows.status();
      }
    }

    if (!status.ok()) {
      // Abort: stop the other slaves at their next granule, and withdraw
      // from the range partition so a rendezvous never waits on us.
      granules_.Close();
      if (range_scan_) range_scan_->Retire(slot);
    }

    std::lock_guard<std::mutex> lock(mutex_);
    if (!status.ok() && first_error_.ok()) first_error_ = status;
    output_.insert(output_.end(), std::make_move_iterator(local.begin()),
                   std::make_move_iterator(local.end()));
    // A slot whose degree was lowered and raised again between its last
    // granule and here keeps its thread: the slot never has two.
    again = KeepSlotLocked(slot);
    if (again) continue;
    if (range_scan_ == nullptr) slot_running_[slot] = false;
    --running_slaves_;
    bool scan_done = range_scan_ ? range_scan_->Done() : granules_.exhausted();
    if (running_slaves_ == 0 && (scan_done || !first_error_.ok())) {
      finished_ = true;
      finish_ns_ = ProfileNowNs();
      is_last = true;
    }
  }
  if (is_last) {
    done_cv_.notify_all();
    if (on_finish_) on_finish_();
  }
}

void ParallelFragmentRun::SpawnLocked(int slot) {
  if (range_scan_ == nullptr) {
    XPRS_CHECK(!slot_running_[slot]);
    slot_running_[slot] = true;
  }
  ++running_slaves_;
  threads_.emplace_back([this, slot] { SlaveMain(slot); });
}

Status ParallelFragmentRun::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  XPRS_CHECK(!started_);
  started_ = true;
  start_ns_ = finish_ns_ = ProfileNowNs();
  if (total_granules_ == 0) {
    finished_ = true;
    done_cv_.notify_all();
    if (on_finish_) on_finish_();
    return Status::OK();
  }
  if (driving_is_temp_) {
    granules_.OpenGranules(total_granules_);
  } else if (range_scan_ == nullptr) {
    granules_.Open(&driving_leaf_->table->file(), &options_.ctx);
  }
  for (int i = 0; i < options_.initial_parallelism; ++i) SpawnLocked(i);
  return Status::OK();
}

void ParallelFragmentRun::Adjust(int new_parallelism) {
  new_parallelism = std::clamp(new_parallelism, 1, options_.max_slots);
  if (range_scan_ == nullptr) {
    // Re-weight the dispenser: no slot owns a granule, so nothing to wait
    // for. Slots below the new degree that have no thread get one.
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_ || finished_) return;
    degree_.store(new_parallelism);
    ++num_adjustments_;
    if (granules_.exhausted()) return;
    for (int slot = 0; slot < new_parallelism; ++slot)
      if (!slot_running_[slot]) SpawnLocked(slot);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_ || finished_) return;
    degree_.store(new_parallelism);
  }
  // The rendezvous must run without holding our mutex (slaves take it when
  // finishing); the partition state has its own synchronization.
  std::vector<int> to_start =
      range_scan_->Adjust(new_parallelism).slots_to_start;
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_) return;
  for (int slot : to_start) SpawnLocked(slot);
}

StatusOr<TempResult> ParallelFragmentRun::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return finished_; });
  lock.unlock();
  for (auto& t : threads_)
    if (t.joinable()) t.join();
  lock.lock();

  if (!first_error_.ok()) return first_error_;

  TempResult result;
  const PlanNode* root = graph_->fragment(frag_id_).root;
  result.schema = root->output_schema;
  result.tuples = std::move(output_);
  if (root->kind == PlanKind::kSort) {
    size_t key = root->sort_key;
    std::stable_sort(result.tuples.begin(), result.tuples.end(),
                     [key](const Tuple& a, const Tuple& b) {
                       return CompareValues(a.value(key), b.value(key)) < 0;
                     });
  } else if (root->kind == PlanKind::kAggregate) {
    // Two-phase aggregation: each slave produced partial aggregates over
    // its partition; combine them (count/sum -> sum, min -> min,
    // max -> max). Group key is column 0 when grouped.
    const bool grouped = root->group_col >= 0;
    const size_t agg_col = grouped ? 1 : 0;
    std::map<int32_t, int64_t> groups;  // key (or 0 for global) -> value
    bool any = false;
    for (const Tuple& t : result.tuples) {
      int32_t key = grouped ? std::get<int32_t>(t.value(0)) : 0;
      const Value& v = t.value(agg_col);
      if (IsNull(v)) continue;
      int64_t partial = std::get<int32_t>(v);
      auto [it, inserted] = groups.emplace(key, partial);
      if (!inserted) {
        switch (root->agg_func) {
          case AggFunc::kCount:
          case AggFunc::kSum:
            it->second += partial;
            break;
          case AggFunc::kMin:
            it->second = std::min(it->second, partial);
            break;
          case AggFunc::kMax:
            it->second = std::max(it->second, partial);
            break;
        }
      }
      any = true;
    }
    result.tuples.clear();
    for (const auto& [key, value] : groups) {
      std::vector<Value> values;
      if (grouped) values.push_back(Value(key));
      values.push_back(Value(static_cast<int32_t>(value)));
      result.tuples.push_back(Tuple(std::move(values)));
    }
    // Global count over an empty input still yields one zero row.
    if (!any && !grouped && root->agg_func == AggFunc::kCount) {
      result.tuples.push_back(Tuple({Value(int32_t{0})}));
    }
  }

  if (QueryProfile* profile = options_.ctx.profile;
      profile != nullptr && profile->Covers(root)) {
    FragmentStats stats;
    stats.frag_id = frag_id_;
    stats.root_label = OperatorLabel(*root);
    stats.partition_kind =
        driving_is_temp_ ? "batches" : (range_scan_ ? "range" : "pages");
    stats.granules = total_granules_;
    stats.initial_parallelism = options_.initial_parallelism;
    stats.final_parallelism = degree_.load();
    stats.adjustments = num_adjustments();
    stats.slaves_spawned = static_cast<int>(threads_.size());
    stats.wall_seconds = 1e-9 * static_cast<double>(finish_ns_ - start_ns_);
    stats.tuples_out = result.tuples.size();
    profile->RecordFragment(stats);
  }
  return result;
}

double ParallelFragmentRun::Progress() const {
  if (total_granules_ == 0) return 1.0;
  if (range_scan_ == nullptr) {
    return static_cast<double>(granules_.taken()) / total_granules_;
  }
  // Range scans do not expose taken-entry counts directly; approximate
  // with doneness.
  return range_scan_->Done() ? 1.0 : 0.5;
}

bool ParallelFragmentRun::finished() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return finished_;
}

int ParallelFragmentRun::parallelism() const { return degree_.load(); }

int ParallelFragmentRun::num_adjustments() const {
  return range_scan_ ? range_scan_->num_adjustments()
                     : num_adjustments_.load();
}

}  // namespace xprs
