#include "rrsim/exec/pdes.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "rrsim/exec/jobs.h"

namespace rrsim::exec {

namespace {

/// Global mailbox order: delivery time, then event priority, then source
/// partition, then per-source posting sequence. (source, seq) pairs are
/// unique, so this is a total order and the sort is deterministic.
struct MessageOrder {
  template <typename M>
  bool operator()(const M& a, const M& b) const noexcept {
    if (a.time != b.time) return a.time < b.time;
    if (a.priority != b.priority) return a.priority < b.priority;
    if (a.source != b.source) return a.source < b.source;
    return a.seq < b.seq;
  }
};

}  // namespace

PdesCoordinator::PdesCoordinator(std::size_t partitions, double lookahead,
                                 int jobs)
    : lookahead_(lookahead) {
  if (partitions == 0) {
    throw std::invalid_argument("pdes: need at least one partition");
  }
  if (!(lookahead > 0.0) || !std::isfinite(lookahead)) {
    throw std::invalid_argument(
        "pdes: lookahead must be positive and finite (a zero-latency grid "
        "is the classic single-queue kernel, not a PDES partitioning)");
  }
  sims_.reserve(partitions);
  for (std::size_t i = 0; i < partitions; ++i) {
    sims_.push_back(std::make_unique<des::Simulation>());
  }
  mailboxes_.resize(partitions);
  seq_.assign(partitions, 0);
  jobs_ = resolve_jobs(jobs);
  if (jobs_ > static_cast<int>(partitions)) {
    jobs_ = static_cast<int>(partitions);
  }
  if (jobs_ < 1) jobs_ = 1;
  if (jobs_ > 1) pool_ = std::make_unique<ThreadPool>(jobs_);
}

void PdesCoordinator::post(std::size_t source, std::size_t dest, des::Time t,
                           des::Priority prio,
                           des::Simulation::Callback fn) {
  if (source >= sims_.size() || dest >= sims_.size()) {
    throw std::out_of_range("pdes: partition index out of range");
  }
  if (!fn) throw std::invalid_argument("pdes: empty message callback");
  // The conservative contract. Checked in every build (it is one compare
  // per cross-cluster message): a violation would let a message land in a
  // window its destination already executed, silently breaking both
  // causality and the jobs-independence guarantee.
  if (!(t >= sims_[source]->now() + lookahead_)) {
    throw std::logic_error("pdes: message posted inside the lookahead horizon");
  }
  mailboxes_[source].push_back(Message{t, static_cast<int>(prio),
                                       static_cast<std::uint32_t>(source),
                                       static_cast<std::uint32_t>(dest),
                                       seq_[source]++, std::move(fn)});
}

void PdesCoordinator::deliver_messages(des::Time bound, bool inclusive) {
  const auto due = [bound, inclusive](const Message& m) {
    return inclusive ? m.time <= bound : m.time < bound;
  };
  // Sort keys of the due messages only: the messages stay in their
  // mailboxes, and the due set is the prefix a sort of every pending
  // message would deliver, in the same order.
  due_.clear();
  for (const std::vector<Message>& box : mailboxes_) {
    for (std::size_t i = 0; i < box.size(); ++i) {
      const Message& m = box[i];
      if (!due(m)) continue;
      due_.push_back(DueKey{m.time, m.priority, m.source, m.seq,
                            static_cast<std::uint32_t>(i)});
    }
  }
  if (due_.empty()) return;
  std::sort(due_.begin(), due_.end(), MessageOrder{});
  for (const DueKey& k : due_) {
    Message& m = mailboxes_[k.source][k.index];
#if RRSIM_VALIDATE_ENABLED
    if (vd_corrupt_delivery_) {
      vd_corrupt_delivery_ = false;
      m.time = -1.0;
    }
#endif
    des::Simulation& dst = *sims_[m.dest];
    RRSIM_CHECK(m.time >= dst.now(),
                "pdes: message delivered into its destination's past");
    dst.schedule_at(m.time, std::move(m.fn),
                    static_cast<des::Priority>(m.priority), m.dest);
    ++delivered_;
  }
  for (std::vector<Message>& box : mailboxes_) std::erase_if(box, due);
}

void PdesCoordinator::advance_all(des::Time horizon) {
  const int n = static_cast<int>(sims_.size());
  if (pool_ != nullptr) {
    parallel_for_each(*pool_, n, [this, horizon](int i) {
      sims_[static_cast<std::size_t>(i)]->run_before(horizon);
    });
  } else {
    for (int i = 0; i < n; ++i) {
      sims_[static_cast<std::size_t>(i)]->run_before(horizon);
    }
  }
}

void PdesCoordinator::run(des::Time limit) {
  if (std::isnan(limit) || limit < 0.0) {
    throw std::invalid_argument("pdes: run limit must be >= 0");
  }
  for (;;) {
    des::Time t = des::kTimeInfinity;
    for (const std::unique_ptr<des::Simulation>& sim : sims_) {
      t = std::min(t, sim->next_event_time());
    }
    for (const std::vector<Message>& box : mailboxes_) {
      for (const Message& m : box) t = std::min(t, m.time);
    }
    if (t >= limit || t >= des::kTimeInfinity) break;
    des::Time horizon = t + lookahead_;
    if (horizon > limit) horizon = limit;
#if RRSIM_VALIDATE_ENABLED
    RRSIM_CHECK(horizon >= vd_last_horizon_, "pdes: horizon went backwards");
    vd_last_horizon_ = horizon;
#endif
    deliver_messages(horizon, /*inclusive=*/false);
    advance_all(horizon);
    ++windows_;
  }
  if (limit < des::kTimeInfinity) {
    // Final pass, mirroring Simulation::run_until(limit): everything at
    // exactly `limit` still runs, then every partition's clock rests at
    // the limit. No window is needed — remaining messages are all due at
    // time >= limit, and anything an at-limit event posts is due at
    // >= limit + lookahead, i.e. past the truncation point.
    deliver_messages(limit, /*inclusive=*/true);
    for (const std::unique_ptr<des::Simulation>& sim : sims_) {
      sim->run_until(limit);
    }
  }
}

}  // namespace rrsim::exec
