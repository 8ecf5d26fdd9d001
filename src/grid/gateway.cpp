#include "rrsim/grid/gateway.h"

#include <algorithm>
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
  for (const auto& [cluster, rid] : tracked->replicas) {
    RRSIM_CHECK(cluster < platform_.size(),
                "gateway: replica targets a cluster outside the platform");
    const std::uint32_t* gid =
        origin_of(rid) == origin_partition
            ? agent.replica_to_grid.find(slot_of(rid))
            : nullptr;
    RRSIM_CHECK(gid != nullptr && *gid == id,
                "gateway: replica index does not map a tracked replica "
                "back to its grid job");
  }
}

void Gateway::debug_validate() const {
  for (std::size_t p = 0; p < agents_.size(); ++p) {
    std::size_t replica_sum = 0;
    agents_[p].tracked.for_each(
        [this, p, &replica_sum](const GridJobId& id, const Tracked& tracked) {
          replica_sum += tracked.replicas.size();
          validate_job(p, id);
        });
    RRSIM_CHECK(replica_sum == agents_[p].replica_to_grid.size(),
                "gateway: replica index size disagrees with the tracked "
                "replica lists");
  }
}

void Gateway::debug_corrupt_tracking() {
  bool done = false;
  for (Agent& agent : agents_) {
    agent.tracked.for_each(
        [this, &agent, &done](const GridJobId&, const Tracked& tracked) {
          for (const auto& [cluster, rid] : tracked.replicas) {
            (void)cluster;
            if (done) return;
            if (std::uint32_t* gid = agent.replica_to_grid.find(slot_of(rid))) {
              *gid += 1;  // now points at a job that does not own this replica
              done = true;
            }
          }
        });
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
  sched::ClusterScheduler& sched = platform_.scheduler(cluster);
  sched.set_callbacks(std::move(cb));
  // Attribute the scheduler's own events (completions, wake-ups) to its
  // cluster, so tie-break explorers can reason about event independence.
  sched.set_event_tag(static_cast<std::uint32_t>(cluster));
}

void Gateway::validate_submission(const GridJob& job,
                                  double remote_inflation) const {
  if (remote_inflation < 1.0) {
    throw std::invalid_argument("remote inflation factor must be >= 1");
  }
  if (job.targets.empty()) {
    throw std::invalid_argument("grid job needs >= 1 target");
  }
  if (job.id > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("grid job id exceeds the 32-bit id space");
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
  } else {
    // Identical replicas in the same queue are pointless; moldable
    // (shaped) submissions legitimately target one queue repeatedly.
    auto sorted = job.targets;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      throw std::invalid_argument("duplicate target cluster");
    }
  }
  // The last id this job would mint must exist.
  const std::size_t p = platform_.partition_of(job.origin);
  (void)replica_id(p, agents_.size(),
                   agents_[p].minted + job.targets.size() - 1);
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
  // Safe to hold across the submit loop: nothing below inserts into or
  // erases from this partition's tracking table (grants only read it, and
  // finishes are events, never part of a submission), so nothing moves it.
  Tracked& tracked = *inserted.value;
  tracked.replicas.reserve(job.targets.size());

  // Build the replica descriptors first: a replica that starts immediately
  // during submission must already see its siblings registered, otherwise
  // they would escape cancellation.
  struct PendingSubmit {
    std::size_t cluster;
    sched::Job replica;
  };
  std::vector<PendingSubmit> submits;
  submits.reserve(job.targets.size());
  for (std::size_t t = 0; t < job.targets.size(); ++t) {
    const std::size_t target = job.targets[t];
    const workload::JobSpec& spec =
        job.replica_specs.empty() ? job.spec : job.replica_specs[t];
    sched::Job replica;
    replica.id = replica_id(p, agents_.size(), agent.minted);
    agent.replica_to_grid.insert(agent.minted++,
                                 static_cast<std::uint32_t>(job.id));
    replica.nodes = spec.nodes;
    replica.user = job.user;
    // The first replica bypasses pending limits: the user's home
    // submission always eventually enters the queue, only the *extra*
    // redundancy is subject to caps.
    replica.limit_exempt = t == 0 && target == job.origin;
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
    tracked.replicas.push_back(Tracked::Replica{
        static_cast<std::uint32_t>(target), replica.id});
    submits.push_back(PendingSubmit{target, replica});
  }
  for (const PendingSubmit& s : submits) {
    const std::size_t to = platform_.partition_of(s.cluster);
    if (to != p) {
      send(p, to, des::Priority::kArrival,
           [this, cluster = s.cluster, replica = s.replica] {
             deliver_submit(cluster, replica, /*deferred=*/false);
           });
    } else if (middleware_.empty()) {
      deliver_submit(s.cluster, s.replica, /*deferred=*/false);
    } else {
      middleware_[s.cluster]->enqueue(
          [this, cluster = s.cluster, replica = s.replica] {
            deliver_submit(cluster, replica, /*deferred=*/true);
          });
    }
  }
  if (record_predictions_) {
    // Min over replicas of each scheduler's submit-time prediction — how a
    // redundancy-using user would forecast their wait (Section 5). Only
    // replicas still pending have predictions in flight; if one already
    // started, the best prediction is "now".
    std::optional<double> best;
    if (tracked.started) {
      best = agent.sim->now();
    } else {
      for (const auto& [cluster, rid] : tracked.replicas) {
        const auto p_start =
            platform_.scheduler(cluster).predicted_start_at_submit(rid);
        if (p_start && (!best || *p_start < *best)) best = *p_start;
      }
    }
    if (best) tracked.predicted_start = *best;
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
    agent.replica_to_grid.clear();
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

Gateway::Tracked* Gateway::tracked_of(sched::JobId replica,
                                      GridJobId* grid_id) {
  Agent& agent = agents_[origin_of(replica)];
  const std::uint32_t* gid = agent.replica_to_grid.find(slot_of(replica));
  if (gid == nullptr) return nullptr;
  if (grid_id != nullptr) *grid_id = *gid;
  return agent.tracked.find(*gid);
}

void Gateway::forget_replica(Agent& agent, Tracked& tracked,
                             sched::JobId replica) {
  agent.replica_to_grid.erase(slot_of(replica));
  std::erase_if(tracked.replicas, [replica](const Tracked::Replica& r) {
    return r.id == replica;
  });
}

void Gateway::deliver_submit(std::size_t cluster, const sched::Job& replica,
                             bool deferred) {
  if (deferred) {
    // Middleware runs on one partition, so the origin's state is local.
    GridJobId grid_id = 0;
    Tracked* tracked = tracked_of(replica.id, &grid_id);
    if (tracked != nullptr && tracked->started) {
      // The job already started elsewhere while this submission was in
      // flight; delivering it would only create a request that is
      // immediately declined. Drop it: it costs neither a submission nor
      // a cancellation (the canceling client simply skips it).
      const std::size_t origin = origin_of(replica.id);
      ++agents_[origin].counts.dropped;
      forget_replica(agents_[origin], *tracked, replica.id);
#if RRSIM_VALIDATE_ENABLED
      validate_job(origin, grid_id);
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
    on_reject(replica.id);
  } else {
    send(here, origin, des::Priority::kControl,
         [this, rid = replica.id] { on_reject(rid); });
  }
}

void Gateway::on_reject(sched::JobId replica) {
  const std::size_t origin = origin_of(replica);
  ++agents_[origin].counts.rejected;
  GridJobId grid_id = 0;
  Tracked* tracked = tracked_of(replica, &grid_id);
  if (tracked == nullptr) return;
  // The record's replicas_delivered excludes this request, while the
  // redundancy intent (tracked.redundant) stands: the paper's r-jobs/
  // n-r-jobs classes are about user behaviour.
  forget_replica(agents_[origin], *tracked, replica);
#if RRSIM_VALIDATE_ENABLED
  validate_job(origin, grid_id);
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
         [this, cluster, rid = job.id] { on_start_notice(cluster, rid); });
    return true;
  }
  Tracked* tracked = tracked_of(job.id);
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
                              sched::JobId replica) {
  Tracked* tracked = tracked_of(replica);
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
  GridJobId grid_id = 0;
  Tracked* found = tracked_of(job.id, &grid_id);
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
  rec.finish_time = job.finish_time;
  rec.actual_time = job.actual_time;
  rec.requested_time = job.requested_time;
  rec.predicted_start = tracked.predicted_start;  // NaN = none
  rec.grid_id = static_cast<std::uint32_t>(grid_id);
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
      !(job.finish_time > job.start_time)) {
    return;
  }
  for (const auto& [rcluster, rid] : tracked.replicas) {
    if (rid != job.id && rcluster == cluster) return;  // same-queue sibling
  }
  for (const auto& [rcluster, rid] : tracked.replicas) {
    (void)rcluster;
    agent.replica_to_grid.erase(slot_of(rid));
  }
  agent.tracked.erase(grid_id);
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
    bytes += agent.tracked.memory_bytes() +
             agent.replica_to_grid.memory_bytes();
    agent.tracked.for_each([&bytes](const GridJobId&, const Tracked& t) {
      bytes += t.replicas.capacity() * sizeof(Tracked::Replica);
    });
  }
  return bytes;
}

}  // namespace rrsim::grid
