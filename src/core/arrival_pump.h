// Internal to the core experiment engine: the one arrival mechanism of
// both kernels. run_experiment() builds one pump per platform partition
// over that partition's clusters (every cluster on the classic kernel,
// one per PDES partition). A pump owns those clusters' pull sources,
// makes each job's user and redundancy draws from that cluster's
// substreams, and schedules every submission as its own kArrival event.
// What happens at dispatch — replica placement and the gateway hand-off —
// is run_experiment()'s `Submit` callable.
//
// Order contract. Clusters merge by (submit time, cluster). Before each
// submit instant the pump stages every arrival of that instant, in
// (cluster, stream) order, and when the last of them fires it stages the
// next instant. The default dispatch order is therefore exactly the
// cluster-major order of a slab pre-scheduled up front, whatever the
// sources and however integer-time traces tie, and a tie-break policy
// (tools/check) sees each same-instant arrival cohort whole. Each event
// submits its own staged job, so a permuted cohort changes only the
// dispatch-time draws (placement), never a job's id, user or coin.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "experiment_detail.h"
#include "rrsim/des/simulation.h"
#include "rrsim/grid/gateway.h"
#include "rrsim/util/rng.h"
#include "rrsim/workload/stream_window.h"

namespace rrsim::core::detail {

template <typename Submit>
class ArrivalPump {
 public:
  /// `submit(grid::GridJob&)` runs at each arrival's dispatch. With
  /// `tag_arrivals`, arrival events carry their origin cluster as the
  /// tie-break tag; otherwise they are untagged, i.e. dependent on
  /// everything for schedule explorers.
  ArrivalPump(des::Simulation& sim, const ExperimentConfig& config,
              bool tag_arrivals, Submit submit)
      : sim_(&sim),
        window_(config.stream_window > 0
                    ? config.stream_window
                    : std::numeric_limits<std::size_t>::max()),
        users_per_cluster_(
            static_cast<std::uint64_t>(config.users_per_cluster)),
        scheme_active_(!config.scheme.is_none()),
        redundant_fraction_(config.redundant_fraction),
        tag_arrivals_(tag_arrivals),
        submit_(std::move(submit)) {}
  // Staged events hold `this`.
  ArrivalPump(const ArrivalPump&) = delete;
  ArrivalPump& operator=(const ArrivalPump&) = delete;

  /// Takes `input`'s source as the next lane. Clusters must be added in
  /// ascending order: lane order is the tie order.
  void add(std::size_t cluster, ClusterInput& input) {
    Lane& lane = lanes_.emplace_back();
    lane.cluster = cluster;
    lane.next_id = input.first_id;
    lane.resident_bytes = input.resident_bytes;
    lane.users = util::Rng::from_fingerprint(input.users_start);
    lane.redundancy = util::Rng::from_fingerprint(input.redundancy_start);
    lane.source = std::move(input.source);
    if (lane.source != nullptr && window_ < input.jobs) {
      lane.scratch.reserve(window_);
    }
  }

  /// Pulls each lane's first window and stages the first instant. Call
  /// once, after the last add(): windows view lane buffers.
  void start() {
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      Lane& lane = lanes_[l];
      if (lane.source == nullptr) continue;
      lane.window = lane.source->pull(window_, lane.scratch);
      heap_.emplace_back(lane.window.front().submit_time, l);
    }
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    stage();
  }

  /// Capacity bytes of the pump's own state: lanes, merge heap and the
  /// staged cohort.
  std::size_t live_state_bytes() const noexcept {
    std::size_t bytes = lanes_.capacity() * sizeof(Lane) +
                        heap_.capacity() * sizeof(HeapEntry) +
                        cohort_.capacity() * sizeof(grid::GridJob);
    for (const grid::GridJob& job : cohort_) {
      bytes += job.targets.capacity() * sizeof(std::size_t);
    }
    return bytes;
  }

  /// Resident trace bytes: what backs each source (whole stream,
  /// checkpoint table or spool index) plus the window buffers.
  std::size_t resident_trace_bytes() const noexcept {
    std::size_t bytes = 0;
    for (const Lane& lane : lanes_) {
      bytes += lane.resident_bytes +
               lane.scratch.capacity() * sizeof(workload::JobSpec);
    }
    return bytes;
  }

 private:
  struct Lane {
    std::size_t cluster = 0;
    std::unique_ptr<workload::WindowSource> source;
    workload::JobStream scratch;  // backs `window` for materializing sources
    std::span<const workload::JobSpec> window;  // the current pull
    std::size_t cursor = 0;                     // next job within `window`
    grid::GridJobId next_id = 0;
    std::size_t resident_bytes = 0;
    util::Rng users{0};
    util::Rng redundancy{0};
  };
  using HeapEntry = std::pair<double, std::size_t>;  // (next submit, lane)

  /// Stages the earliest pending instant: every lane at that time, in lane
  /// order (the min-heap pops ties by lane index), every job of each.
  void stage() {
    staged_ = 0;
    if (heap_.empty()) return;
    const double t = heap_.front().first;
    while (!heap_.empty() && heap_.front().first == t) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const std::size_t l = heap_.back().second;
      heap_.pop_back();
      Lane& lane = lanes_[l];
      bool more = true;
      while (more && lane.window[lane.cursor].submit_time == t) {
        emit(lane);
        more = advance(lane);
      }
      if (more) {
        heap_.emplace_back(lane.window[lane.cursor].submit_time, l);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      }
    }
    unfired_ = staged_;
    for (std::size_t i = 0; i < staged_; ++i) {
      const std::uint32_t tag =
          tag_arrivals_ ? static_cast<std::uint32_t>(cohort_[i].origin)
                        : des::kNoEventTag;
      sim_->schedule_at(t, [this, i] { fire(i); }, des::Priority::kArrival,
                        tag);
    }
  }

  void fire(std::size_t i) {
    submit_(cohort_[i]);
    if (--unfired_ == 0) stage();
  }

  /// Appends the lane's current job to the cohort, drawing its user and
  /// redundancy coin in stream order.
  void emit(Lane& lane) {
    if (staged_ == cohort_.size()) cohort_.emplace_back();
    grid::GridJob& job = cohort_[staged_++];
    job.id = lane.next_id++;
    job.origin = lane.cluster;
    job.user = static_cast<sched::UserId>(
        lane.cluster * kUserIdStride + lane.users.below(users_per_cluster_));
    job.spec = lane.window[lane.cursor];
    // Scheme NONE never advances the redundancy substream (the memoized
    // draw segments key on that, see DrawSegmentKey::scheme_active).
    job.redundant =
        scheme_active_ && lane.redundancy.chance(redundant_fraction_);
    job.targets.assign(1, lane.cluster);
  }

  /// Moves past the current job, pulling the next window when this one is
  /// spent. Returns false once the lane has no job left.
  bool advance(Lane& lane) {
    if (++lane.cursor == lane.window.size() && !lane.source->exhausted()) {
      lane.window = lane.source->pull(window_, lane.scratch);
      lane.cursor = 0;
    }
    return lane.cursor < lane.window.size();
  }

  des::Simulation* sim_;
  std::size_t window_;
  std::uint64_t users_per_cluster_;
  bool scheme_active_;
  double redundant_fraction_;
  bool tag_arrivals_;
  Submit submit_;
  std::vector<Lane> lanes_;
  std::vector<HeapEntry> heap_;
  std::vector<grid::GridJob> cohort_;  // reused: staged_ live entries
  std::size_t staged_ = 0;
  std::size_t unfired_ = 0;
};

}  // namespace rrsim::core::detail
