#include "rrsim/grid/gateway.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace rrsim::grid {

Gateway::Gateway(Platform& platform, bool record_predictions)
    : platform_(platform),
      latency_(platform.coordinator() != nullptr
                   ? platform.coordinator()->lookahead()
                   : 0.0),
      record_predictions_(false),
      agents_(platform.partitions()) {
  for (std::size_t c = 0; c < platform_.size(); ++c) {
    agents_[platform_.partition_of(c)].sim =
        &platform_.scheduler(c).simulation();
  }
  reset(record_predictions);
}

sched::JobId Gateway::replica_id(std::size_t partition,
                                 std::size_t partitions, std::uint64_t k) {
  const std::uint64_t max = std::numeric_limits<sched::JobId>::max();
  // k <= max keeps k * partitions inside 64 bits for any partition count
  // below 2^32.
  if (k > max || partition + 1 + k * partitions > max) {
    throw std::length_error("gateway: replica id space exhausted");
  }
  return static_cast<sched::JobId>(partition + 1 + k * partitions);
}

#if RRSIM_VALIDATE_ENABLED
void Gateway::validate_job(std::size_t origin_partition, GridJobId id) const {
  const Agent& agent = agents_[origin_partition];
  const Tracked* tracked = agent.tracked.find(id);
  RRSIM_CHECK(tracked != nullptr, "gateway: tracked job vanished");
  const auto partitions = static_cast<std::uint32_t>(agents_.size());
  for (const auto& [cluster, rid] : tracked->replicas) {
    RRSIM_CHECK(cluster < platform_.size(),
                "gateway: replica targets a cluster outside the platform");
    RRSIM_CHECK(rid != 0 && origin_of(rid) == origin_partition &&
                    (rid - 1u) / partitions < agent.minted,
                "gateway: tracked replica id was not minted by its job's "
                "origin partition");
  }
}

void Gateway::debug_validate() const {
  for (std::size_t p = 0; p < agents_.size(); ++p) {
    agents_[p].tracked.for_each([this, p](const GridJobId& id,
                                          const Tracked&) {
      validate_job(p, id);
    });
  }
}

void Gateway::debug_corrupt_tracking() {
  for (std::size_t p = 0; p < agents_.size(); ++p) {
    Agent& agent = agents_[p];
    GridJobId victim = 0;
    agent.tracked.for_each([&victim](const GridJobId& id, const Tracked& t) {
      if (victim == 0 && !t.replicas.empty()) victim = id;
    });
    if (victim == 0) continue;
    // The next id this partition would mint: no submission produced it.
    agent.tracked.find(victim)->replicas.front().id =
        replica_id(p, agents_.size(), agent.minted);
    return;
  }
}
#endif

void Gateway::install_callbacks(std::size_t cluster) {
  sched::ClusterScheduler::Callbacks cb;
  cb.on_grant = [this, cluster](const sched::Job& job) {
    return on_grant(cluster, job);
  };
  cb.on_finish = [this, cluster](const sched::Job& job) {
    on_finish(cluster, job);
  };
  if (record_predictions_) {
    // Min over replicas of the schedulers' submit-time predictions: how a
    // redundancy-using user would forecast their wait (Section 5). One
    // partition only, so the job's tracking entry is local.
    cb.on_prediction = [this](const sched::Job& job, double start) {
      if (Tracked* tracked = tracked_of(job.id, job.owner)) {
        tracked->predicted_start = std::fmin(tracked->predicted_start, start);
      }
    };
  }
  sched::ClusterScheduler& sched = platform_.scheduler(cluster);
  sched.set_callbacks(std::move(cb));
  // Attribute the scheduler's own events (completions, wake-ups) to its
  // cluster, so tie-break explorers can reason about event independence.
  sched.set_event_tag(static_cast<std::uint32_t>(cluster));
}

void Gateway::validate_submission(const GridJob& job,
                                  double remote_inflation) {
  if (remote_inflation < 1.0) {
    throw std::invalid_argument("remote inflation factor must be >= 1");
  }
  if (job.targets.empty()) {
    throw std::invalid_argument("grid job needs >= 1 target");
  }
  // Replicas carry the grid id as their 32-bit owner tag, in which 0
  // marks a job the gateway does not manage.
  if (job.id == 0 || job.id > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("grid job id outside [1, 2^32 - 1]");
  }
  if (job.origin >= platform_.size()) {
    throw std::invalid_argument("origin cluster outside the platform");
  }
  for (const std::size_t target : job.targets) {
    if (target >= platform_.size()) {
      throw std::invalid_argument("target cluster outside the platform");
    }
  }
  if (std::find(job.targets.begin(), job.targets.end(), job.origin) ==
      job.targets.end()) {
    throw std::invalid_argument("origin cluster must be among the targets");
  }
  const std::size_t p = platform_.partition_of(job.origin);
  Agent& agent = agents_[p];
  if (!job.replica_specs.empty()) {
    // Same-queue (moldable) siblings rely on the grant-time decline, which
    // a grant outside the origin's partition cannot get.
    if (agents_.size() > 1) {
      throw std::invalid_argument(
          "moldable replica shapes need every cluster in one partition "
          "(not supported in PDES mode)");
    }
    if (job.replica_specs.size() != job.targets.size()) {
      throw std::invalid_argument("one replica spec per target required");
    }
  } else if (job.targets.size() > 1) {
    // Identical replicas in the same queue are pointless; moldable
    // (shaped) submissions legitimately target one queue repeatedly. A
    // fresh stamp marks this submission's targets in the origin agent's
    // per-cluster array: O(targets), no copy.
    if (agent.target_stamps.empty()) {
      agent.target_stamps.assign(platform_.size(), 0);
    }
    if (++agent.stamp == 0) {  // wrapped: no stale mark may match
      std::fill(agent.target_stamps.begin(), agent.target_stamps.end(), 0);
      agent.stamp = 1;
    }
    for (const std::size_t target : job.targets) {
      if (agent.target_stamps[target] == agent.stamp) {
        throw std::invalid_argument("duplicate target cluster");
      }
      agent.target_stamps[target] = agent.stamp;
    }
  }
  // The last id this job would mint must exist.
  (void)replica_id(p, agents_.size(), agent.minted + job.targets.size() - 1);
}

template <typename Fn>
void Gateway::send(std::size_t from, std::size_t to, des::Priority priority,
                   Fn&& fn) {
  platform_.coordinator()->post(from, to, agents_[from].sim->now() + latency_,
                                priority, std::forward<Fn>(fn));
}

void Gateway::submit(const GridJob& job, double remote_inflation) {
  validate_submission(job, remote_inflation);
  const std::size_t p = platform_.partition_of(job.origin);
  Agent& agent = agents_[p];
  Tracked fresh;
  fresh.submit_time = agent.sim->now();
  fresh.origin = static_cast<std::uint32_t>(job.origin);
  fresh.redundant = job.redundant;
  fresh.replicas_sent = static_cast<std::uint16_t>(
      std::min<std::size_t>(job.targets.size(), 0xffff));
  const auto inserted = agent.tracked.try_emplace(job.id, std::move(fresh));
  if (!inserted.inserted) {
    throw std::invalid_argument("duplicate grid job id");
  }
  ++agent.counts.submitted;
  // Safe to hold across the submit loops: nothing below inserts into or
  // erases from this partition's tracking table (grants only read it, and
  // finishes are events, never part of a submission), so nothing moves it.
  Tracked& tracked = *inserted.value;
  tracked.replicas.reserve(job.targets.size());

  // Register every replica before delivering any: a replica that starts
  // immediately during submission must already see its siblings
  // registered, otherwise they would escape cancellation.
  const std::uint64_t first = agent.minted;
  for (const std::size_t target : job.targets) {
    tracked.replicas.push_back(
        Tracked::Replica{static_cast<std::uint32_t>(target),
                         replica_id(p, agents_.size(), agent.minted++)});
  }
  // The origin's replica bypasses pending limits wherever it sits in
  // targets: the user's home submission always eventually enters the
  // queue, only the *extra* redundancy is subject to caps. Only the first
  // one is exempt when same-queue (moldable) siblings repeat the origin.
  const auto home = static_cast<std::size_t>(
      std::find(job.targets.begin(), job.targets.end(), job.origin) -
      job.targets.begin());
  // Then derive and deliver each replica from its target. A delivery may
  // shrink tracked.replicas (a refused replica is forgotten), so replica t
  // takes the t-th id minted above, not tracked.replicas[t].
  for (std::size_t t = 0; t < job.targets.size(); ++t) {
    const std::size_t target = job.targets[t];
    const workload::JobSpec& spec =
        job.replica_specs.empty() ? job.spec : job.replica_specs[t];
    sched::Job replica;
    replica.id = replica_id(p, agents_.size(), first + t);
    replica.owner = static_cast<std::uint32_t>(job.id);
    replica.nodes = spec.nodes;
    replica.user = job.user;
    replica.limit_exempt = t == home;
    replica.actual_time = spec.runtime;
    // Shaped (moldable) replicas carry explicit requested times; uniform
    // replicas inflate the remote ones per Section 3.1.2.
    replica.requested_time =
        (!job.replica_specs.empty() || target == job.origin)
            ? spec.requested_time
            : spec.requested_time * remote_inflation;
    // Real schedulers kill jobs at the requested limit; keep actual <=
    // requested even when the user under-estimates.
    replica.requested_time = std::max(replica.requested_time,
                                      replica.actual_time);
    const std::size_t to = platform_.partition_of(target);
    if (to != p) {
      send(p, to, des::Priority::kArrival, [this, target, replica] {
        deliver_submit(target, replica, /*deferred=*/false);
      });
    } else if (middleware_.empty()) {
      deliver_submit(target, replica, /*deferred=*/false);
    } else {
      middleware_[target]->enqueue([this, target, replica] {
        deliver_submit(target, replica, /*deferred=*/true);
      });
    }
  }
  // A job that started during its own submission is predicted to start now.
  if (record_predictions_ && tracked.started) {
    tracked.predicted_start = agent.sim->now();
  }
#if RRSIM_VALIDATE_ENABLED
  validate_job(p, job.id);
#endif
}

void Gateway::reset(bool record_predictions) {
  if (record_predictions && agents_.size() > 1) {
    throw std::invalid_argument(
        "submit-time predictions need every cluster in one partition "
        "(not supported in PDES mode)");
  }
  record_predictions_ = record_predictions;
  middleware_.clear();
  sink_ = nullptr;
  for (Agent& agent : agents_) {
    agent.tracked.clear();
    agent.records.clear();
    agent.minted = 0;
    agent.counts = Counts{};
  }
  // Re-install callbacks: a scheduler reset keeps its hooks, but going
  // through the constructor path again makes reuse self-contained.
  for (std::size_t c = 0; c < platform_.size(); ++c) install_callbacks(c);
}

void Gateway::set_middleware(std::vector<MiddlewareStation*> stations) {
  if (!stations.empty() && agents_.size() > 1) {
    throw std::invalid_argument(
        "middleware needs every cluster in one partition (not supported "
        "in PDES mode)");
  }
  if (!stations.empty() && stations.size() != platform_.size()) {
    throw std::invalid_argument("need one middleware station per cluster");
  }
  if (!stations.empty() && record_predictions_) {
    throw std::invalid_argument(
        "submit-time predictions need instantaneous delivery");
  }
  for (const MiddlewareStation* s : stations) {
    if (s == nullptr) throw std::invalid_argument("null middleware station");
  }
  for (std::size_t c = 0; c < stations.size(); ++c) {
    stations[c]->set_event_tag(static_cast<std::uint32_t>(c));
  }
  middleware_ = std::move(stations);
}

void Gateway::set_record_sink(metrics::OnlineAccumulator* sink) {
  if (sink != nullptr && agents_.size() > 1) {
    throw std::invalid_argument(
        "the streaming record sink needs every cluster in one partition "
        "(not supported in PDES mode)");
  }
  sink_ = sink;
}

void Gateway::forget_replica(Tracked& tracked, sched::JobId replica) {
  std::erase_if(tracked.replicas, [replica](const Tracked::Replica& r) {
    return r.id == replica;
  });
}

void Gateway::deliver_submit(std::size_t cluster, const sched::Job& replica,
                             bool deferred) {
  if (deferred) {
    // Middleware runs on one partition, so the origin's state is local.
    Tracked* tracked = tracked_of(replica.id, replica.owner);
    if (tracked != nullptr && tracked->started) {
      // The job already started elsewhere while this submission was in
      // flight; delivering it would only create a request that is
      // immediately declined. Drop it: it costs neither a submission nor
      // a cancellation (the canceling client simply skips it).
      const std::size_t origin = origin_of(replica.id);
      ++agents_[origin].counts.dropped;
      forget_replica(*tracked, replica.id);
#if RRSIM_VALIDATE_ENABLED
      validate_job(origin, replica.owner);
#endif
      return;
    }
  }
  if (platform_.scheduler(cluster).submit(replica)) return;
  // Refused by a per-user pending limit: the origin forgets the replica.
  // Across partitions the notice takes another L, and a record written
  // before it arrives keeps the optimistic replicas_delivered count.
  const std::size_t here = platform_.partition_of(cluster);
  const std::size_t origin = origin_of(replica.id);
  if (origin == here) {
    on_reject(replica.id, replica.owner);
  } else {
    send(here, origin, des::Priority::kControl,
         [this, rid = replica.id, owner = replica.owner] {
           on_reject(rid, owner);
         });
  }
}

void Gateway::on_reject(sched::JobId replica, GridJobId owner) {
  const std::size_t origin = origin_of(replica);
  ++agents_[origin].counts.rejected;
  Tracked* tracked = tracked_of(replica, owner);
  if (tracked == nullptr) return;
  // The record's replicas_delivered excludes this request, while the
  // redundancy intent (tracked.redundant) stands: the paper's r-jobs/
  // n-r-jobs classes are about user behaviour.
  forget_replica(*tracked, replica);
#if RRSIM_VALIDATE_ENABLED
  validate_job(origin, owner);
#endif
}

void Gateway::deliver_cancel(std::size_t cluster, sched::JobId replica) {
  // A qdel for a replica already running or terminal is a no-op: across
  // partitions the canceller cannot know better.
  if (platform_.scheduler(cluster).cancel(replica)) {
    ++agents_[platform_.partition_of(cluster)].counts.cancels;
  }
}

bool Gateway::on_grant(std::size_t cluster, const sched::Job& job) {
  const std::size_t here = platform_.partition_of(cluster);
  const std::size_t origin = origin_of(job.id);
  if (origin != here) {
    // The origin's knowledge is L old: the grant stands, and a start
    // notice that arrives after another start counts as a duplicate.
    send(here, origin, des::Priority::kControl,
         [this, cluster, rid = job.id, owner = job.owner] {
           on_start_notice(cluster, rid, owner);
         });
    return true;
  }
  Tracked* tracked = tracked_of(job.id, job.owner);
  if (tracked == nullptr) {
    // Not a gateway-managed job (e.g. background load) — always allow.
    return true;
  }
  if (tracked->started) {
    // A sibling replica already won; refuse this start. The scheduler
    // drops the request, which also counts as the "cancellation" of this
    // replica from the middleware's point of view.
    ++agents_[here].counts.cancels;
    return false;
  }
  start(origin, *tracked, cluster);
  return true;
}

void Gateway::on_start_notice(std::size_t winner_cluster,
                              sched::JobId replica, GridJobId owner) {
  Tracked* tracked = tracked_of(replica, owner);
  if (tracked == nullptr) return;  // not gateway-managed
  if (tracked->started) {
    // Siblings were already cancelled at the first start.
    ++agents_[origin_of(replica)].counts.duplicate_starts;
    return;
  }
  start(origin_of(replica), *tracked, winner_cluster);
}

void Gateway::start(std::size_t origin_partition, Tracked& tracked,
                    std::size_t winner_cluster) {
  tracked.started = true;
  // Issuing a qdel from inside another scheduler's scheduling pass would
  // mutate queues mid-iteration, so a sibling in the origin's partition is
  // cancelled by a same-timestamp event right after the current one (a
  // sibling granted in between is declined by on_grant). A sibling in
  // another partition gets its qdel one latency later.
  for (const auto& [cluster, rid] : tracked.replicas) {
    if (cluster == winner_cluster) continue;
    const std::size_t to = platform_.partition_of(cluster);
    if (to != origin_partition) {
      send(origin_partition, to, des::Priority::kCancel,
           [this, cluster, rid] { deliver_cancel(cluster, rid); });
    } else if (middleware_.empty()) {
      agents_[origin_partition].sim->schedule_in(
          0.0, [this, cluster, rid] { deliver_cancel(cluster, rid); },
          des::Priority::kCancel, cluster);
    } else {
      // The qdel is itself a middleware transaction and arrives late.
      middleware_[cluster]->enqueue(
          [this, cluster, rid] { deliver_cancel(cluster, rid); });
    }
  }
}

void Gateway::on_finish(std::size_t cluster, const sched::Job& job) {
  const std::size_t here = platform_.partition_of(cluster);
  const std::size_t origin = origin_of(job.id);
  if (origin == here) {
    record_finish(cluster, job);
  } else {
    send(here, origin, des::Priority::kControl,
         [this, cluster, job] { record_finish(cluster, job); });
  }
}

void Gateway::record_finish(std::size_t cluster, const sched::Job& job) {
  const std::size_t origin = origin_of(job.id);
  Agent& agent = agents_[origin];
  Tracked* found = tracked_of(job.id, job.owner);
  if (found == nullptr) return;  // not gateway-managed
  Tracked& tracked = *found;
  if (tracked.finished) {
    ++agent.counts.duplicate_finishes;  // a duplicate start completing
    return;
  }
  tracked.finished = true;
  ++agent.counts.finished;
  // A winner outside the origin's partition entered its queue one latency
  // after the user submitted; the record keeps the user's instant, so
  // wait and turnaround include the delay the user experienced.
  const double submit_time = platform_.partition_of(cluster) == origin
                                 ? job.submit_time
                                 : tracked.submit_time;
  metrics::JobRecord rec;
  rec.submit_time = submit_time;
  rec.start_time = job.start_time;
  rec.finish_time = job.finish_time();
  rec.actual_time = job.actual_time;
  rec.requested_time = job.requested_time;
  rec.predicted_start = tracked.predicted_start;  // NaN = none
  rec.grid_id = job.owner;
  rec.origin_cluster = tracked.origin;
  rec.winner_cluster = static_cast<std::uint32_t>(cluster);
  rec.nodes = job.nodes;
  rec.replicas = tracked.replicas_sent;
  // tracked.replicas holds the replicas actually *delivered* (dropped and
  // limit-rejected ones were removed; nothing else shrinks the list).
  // It saturates at 2^16 - 1, like replicas_sent.
  rec.replicas_delivered = static_cast<std::uint16_t>(
      std::min<std::size_t>(tracked.replicas.size(), 0xffff));
  rec.redundant = tracked.redundant;
  if (sink_ != nullptr) {
    sink_->add(rec);
  } else {
    agent.records.push_back(rec);
  }
  // Reclaim the job's tracking state. On one partition with direct
  // delivery and a finish strictly after the start, no event can
  // reference these replicas any more: every sibling was declined or
  // cancelled at the start instant. Three bounded exceptions keep their
  // entries: middleware (a late deliver_submit still needs
  // tracked.started to count drops), zero-length runs (finish at the
  // start instant may still race same-timestamp sibling grants), and
  // moldable same-queue siblings — those are never qdel'ed (start() skips
  // the winner's cluster) and rely on the grant-time decline, which needs
  // the tracking entry. On more than one partition, notices about a job
  // can arrive up to 2L after its record is written, so every entry
  // stays for the run (O(total jobs)).
  if (agents_.size() > 1 || !middleware_.empty() ||
      !(job.finish_time() > job.start_time)) {
    return;
  }
  for (const auto& [rcluster, rid] : tracked.replicas) {
    if (rid != job.id && rcluster == cluster) return;  // same-queue sibling
  }
  agent.tracked.erase(job.owner);
}

const metrics::JobRecords& Gateway::records() const {
  if (agents_.size() != 1) {
    throw std::logic_error(
        "gateway: records() needs one partition; use take_records()");
  }
  return agents_.front().records;
}

metrics::JobRecords Gateway::take_records() {
  std::size_t total = 0;
  for (const Agent& agent : agents_) total += agent.records.size();
  metrics::JobRecords all = std::move(agents_.front().records);
  agents_.front().records.clear();
  all.reserve(total);
  for (std::size_t p = 1; p < agents_.size(); ++p) {
    all.insert(all.end(), agents_[p].records.begin(),
               agents_[p].records.end());
    agents_[p].records.clear();
  }
  return all;
}

void Gateway::reserve_records(std::size_t origin, std::size_t n) {
  agents_.at(platform_.partition_of(origin)).records.reserve(n);
}

std::uint64_t Gateway::cross_cluster_links() const noexcept {
  std::uint64_t links = 0;
  for (const Agent& agent : agents_) {
    agent.tracked.for_each([&links](const GridJobId&, const Tracked& t) {
      for (std::size_t i = 1; i < t.replicas.size(); ++i) {
        if (t.replicas[i].cluster != t.replicas[0].cluster) {
          ++links;
          break;
        }
      }
    });
  }
  return links;
}

std::size_t Gateway::live_state_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const Agent& agent : agents_) {
    bytes += agent.tracked.memory_bytes();
    agent.tracked.for_each([&bytes](const GridJobId&, const Tracked& t) {
      bytes += t.replicas.capacity() * sizeof(Tracked::Replica);
    });
  }
  return bytes;
}

}  // namespace rrsim::grid
