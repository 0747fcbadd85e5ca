#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace mirage::sim {

Simulator::Simulator(ClusterModel cluster, SchedulerConfig config)
    : kernel_(std::move(cluster)), config_(config) {
  const auto nparts = static_cast<std::size_t>(kernel_.cluster().partition_count());
  base_profiles_.assign(nparts, AvailabilityProfile(0, 0));
  pass_profiles_.assign(nparts, AvailabilityProfile(0, 0));
  for (std::size_t p = 0; p < nparts; ++p) {
    // Steps are bounded by distinct release times (<= running jobs, itself
    // <= partition nodes) plus reservation boundaries; pre-size so even
    // the warm-up passes stay allocation-free on typical clusters.
    const auto cap = static_cast<std::size_t>(
        kernel_.cluster().nominal_nodes(static_cast<PartitionId>(p)) + 64);
    base_profiles_[p].reserve_steps(cap);
    pass_profiles_[p].reserve_steps(cap);
    check_profile_.reserve_steps(cap);
  }
  profile_epoch_.assign(nparts, 0);
  profile_stale_.assign(nparts, 1);  // first pass builds from scratch
  scan_dirty_.assign(nparts, 1);
  scan_now_.assign(nparts, 0);
  part_queue_.resize(nparts);
  last_queue_.resize(nparts);
  blocked_.assign(nparts, 0);
  reservations_.assign(nparts, 0);
  scanned_past_blocked_.assign(nparts, 0);
  validate_profiles_ = config_.validate_profiles;
#ifndef NDEBUG
  validate_profiles_ = true;  // debug builds always cross-check
#endif
}

PartitionId Simulator::resolve_constraint(const JobRecord& record) const {
  if (record.partition.empty()) return kAnyPartition;
  const PartitionId p = kernel_.cluster().index_of(record.partition);
  if (p == kAnyPartition) {
    throw std::invalid_argument("job requests unknown partition: " + record.partition);
  }
  return p;
}

void Simulator::validate_record(const JobRecord& record, PartitionId constraint) const {
  // Validate against nominal capacity so a transient outage does not
  // reject a job that fits the cluster as built.
  const auto& model = kernel_.cluster();
  const std::int32_t ceiling = constraint == kAnyPartition
                                   ? model.max_partition_nominal()
                                   : model.nominal_nodes(constraint);
  if (record.num_nodes > ceiling) {
    throw std::invalid_argument("job requests more nodes than its partition has");
  }
}

JobId Simulator::enqueue_record(JobRecord&& record) {
  const JobId id = static_cast<JobId>(jobs_.size());
  SimJob j;
  j.record = std::move(record);
  j.constraint = resolve_constraint(j.record);
  validate_record(j.record, j.constraint);
  jobs_.push_back(std::move(j));
  push_event(std::max(jobs_.back().record.submit_time, now_), EventType::kArrival, id);
  return id;
}

void Simulator::load_workload(const Trace& workload) {
  Trace copy = workload;
  load_workload(std::move(copy));
}

void Simulator::load_workload(Trace&& workload) {
  const std::size_t n = jobs_.size() + workload.size();
  jobs_.reserve(n);
  // Pre-size every hot container so a steady-state run never reallocates:
  // at most one arrival + one finish event per job (requeues from preempt
  // bursts amortize into the slack), and the queue/run/log vectors are
  // bounded by the job count.
  events_.reserve(2 * n + 64);
  pending_.reserve(n);
  still_pending_.reserve(n);
  sort_keys_.reserve(n);
  running_.reserve(n);
  start_log_.reserve(n);
  last_full_order_.reserve(n);
  for (auto& r : workload) enqueue_record(std::move(r));
  workload.clear();
}

void Simulator::schedule_cluster_event(const ClusterEvent& event) {
  std::string error;
  if (!kernel_.validate(event, &error)) throw std::invalid_argument(error);
  const JobId index = static_cast<JobId>(cluster_events_.size());
  cluster_events_.push_back(event);
  push_event(std::max(event.time, now_), EventType::kCluster, index);
}

JobId Simulator::submit(const JobRecord& job) {
  const PartitionId constraint = resolve_constraint(job);
  validate_record(job, constraint);
  const JobId id = static_cast<JobId>(jobs_.size());
  SimJob j;
  j.record = job;
  j.record.submit_time = now_;  // injected at the current instant
  j.status = JobStatus::kPending;
  j.constraint = constraint;
  jobs_.push_back(std::move(j));
  pending_.push_back(id);
  mark_candidate(constraint);
  needs_schedule_ = true;
  schedule_pass();
  return id;
}

void Simulator::push_event(SimTime t, EventType type, JobId job) {
  events_.push_back(Event{t, event_seq_++, type, job});
  std::push_heap(events_.begin(), events_.end(), std::greater<Event>{});
}

void Simulator::run_until(SimTime t) {
  while (!events_.empty() && events_.front().time <= t) {
    // Drain all events at the next timestamp, then run one scheduler pass —
    // this batches simultaneous arrivals/finishes like Slurm's event loop.
    const SimTime batch_time = events_.front().time;
    now_ = batch_time;
    while (!events_.empty() && events_.front().time == batch_time) {
      const Event e = events_.front();
      std::pop_heap(events_.begin(), events_.end(), std::greater<Event>{});
      events_.pop_back();
      process_event(e);
    }
    if (needs_schedule_) schedule_pass();
  }
  now_ = std::max(now_, t);
}

void Simulator::run_to_completion() {
  // Drain event by event so now() ends at the last event time rather than
  // warping to an arbitrary horizon.
  while (!events_.empty()) run_until(events_.front().time);
}

void Simulator::run_until_complete(JobId id) {
  while (status(id) != JobStatus::kCompleted && !events_.empty()) {
    run_until(events_.front().time);
  }
}

void Simulator::run_until_started(JobId id) {
  while (status(id) == JobStatus::kPending || status(id) == JobStatus::kFuture ||
         status(id) == JobStatus::kPreempted) {
    if (events_.empty()) return;
    run_until(events_.front().time);
  }
}

void Simulator::mark_candidate(PartitionId constraint) {
  if (constraint == kAnyPartition) {
    std::fill(scan_dirty_.begin(), scan_dirty_.end(), char{1});
  } else {
    scan_dirty_[static_cast<std::size_t>(constraint)] = 1;
  }
}

void Simulator::process_event(const Event& e) {
  // For kCluster events e.job indexes cluster_events_, not jobs_ — do not
  // form a job reference before dispatching.
  if (e.type == EventType::kCluster) {
    const ClusterEvent& cev = cluster_events_[static_cast<std::size_t>(e.job)];
    if (trace_ != nullptr && obs::enabled()) {
      obs::TraceEvent ev;
      ev.kind = obs::TraceEventKind::kClusterEvent;
      ev.name = cluster_event_name(cev.type);
      ev.ts = now_;
      ev.arg0 = static_cast<std::int64_t>(cev.type);
      ev.arg1 = cev.nodes;
      const PartitionId p =
          cev.partition.empty() ? kAnyPartition : kernel_.cluster().index_of(cev.partition);
      ev.tid = p == kAnyPartition ? 0 : static_cast<std::uint32_t>(p);
      trace_->record(ev);
    }
    kernel_.apply(cev, *this);
    // Capacity edits surface through the cluster's capacity_epoch (checked
    // per partition at the next pass); kills/preemptions mark their
    // partitions stale in the host callbacks below.
    needs_schedule_ = true;
    return;
  }
  auto& j = jobs_[static_cast<std::size_t>(e.job)];
  switch (e.type) {
    case EventType::kArrival:
      if (j.status != JobStatus::kFuture) return;  // already injected
      j.status = JobStatus::kPending;
      pending_.push_back(e.job);
      mark_candidate(j.constraint);
      needs_schedule_ = true;
      break;
    case EventType::kFinish: {
      // A kNodeDown event may have killed the job already; its original
      // finish event is then stale and must be ignored. A preempted-and-
      // restarted job is running again, but only the finish event matching
      // the current run's end instant may complete it.
      if (j.status != JobStatus::kRunning) return;
      if (now_ != j.start + j.duration()) return;  // stale pre-preemption finish
      j.status = JobStatus::kCompleted;
      j.end = now_;
      j.record.end_time = now_;
      trace_job_event(obs::TraceEventKind::kJobRun, j, e.job);
      const PartitionId p = j.placed;
      kernel_.cluster().release(p, j.record.num_nodes);
      if (config_.backfill && !profile_stale_[static_cast<std::size_t>(p)]) {
        // O(Δ) profile update: the limit-based release moves up to now.
        base_profiles_[static_cast<std::size_t>(p)].release_early(
            now_, j.start + j.record.time_limit, j.record.num_nodes);
      }
      running_.erase(std::find(running_.begin(), running_.end(), e.job));
      kernel_.absorb_drain(p);  // capacity edits bump the epoch -> rebuild
      scan_dirty_[static_cast<std::size_t>(p)] = 1;  // freed capacity
      needs_schedule_ = true;
      break;
    }
    case EventType::kRequeue:
      if (j.status != JobStatus::kPreempted) return;
      j.status = JobStatus::kPending;
      pending_.push_back(e.job);
      trace_job_event(obs::TraceEventKind::kJobRequeue, j, e.job);
      mark_candidate(j.constraint);
      needs_schedule_ = true;
      break;
    case EventType::kCluster:
      break;  // handled above
  }
}

void Simulator::trace_job_event(obs::TraceEventKind kind, const SimJob& j, JobId id) const {
  if (trace_ == nullptr || !obs::enabled()) return;
  obs::TraceEvent ev;
  ev.kind = kind;
  ev.arg0 = id;
  ev.arg1 = j.record.num_nodes;
  ev.tid = static_cast<std::uint32_t>(j.placed);
  if (kind == obs::TraceEventKind::kJobRun) {
    // Complete slice for one (possibly truncated) run of the job. Callers
    // record it before start is reset, so [start, now] is always valid.
    ev.name = "job_run";
    ev.ts = j.start;
    ev.dur = now_ - j.start;
  } else {
    ev.ts = now_;
  }
  trace_->record(ev);
}

JobId Simulator::pick_victim(PartitionId p) const {
  JobId victim = -1;
  for (const JobId id : running_) {
    if (jobs_[static_cast<std::size_t>(id)].placed != p) continue;
    if (victim < 0) {
      victim = id;
      continue;
    }
    const auto& jv = jobs_[static_cast<std::size_t>(victim)];
    const auto& jc = jobs_[static_cast<std::size_t>(id)];
    // Deterministic LIFO victim selection: latest start, then highest id.
    if (jc.start > jv.start || (jc.start == jv.start && id > victim)) victim = id;
  }
  return victim;
}

std::int32_t Simulator::kill_one(PartitionId p) {
  const JobId id = pick_victim(p);
  if (id < 0) return 0;
  auto& j = jobs_[static_cast<std::size_t>(id)];
  j.status = JobStatus::kKilled;
  j.end = now_;
  j.record.end_time = now_;
  trace_job_event(obs::TraceEventKind::kJobRun, j, id);  // the truncated run
  trace_job_event(obs::TraceEventKind::kJobKill, j, id);
  kernel_.cluster().release(j.placed, j.record.num_nodes);
  running_.erase(std::find(running_.begin(), running_.end(), id));
  profile_stale_[static_cast<std::size_t>(p)] = 1;
  scan_dirty_[static_cast<std::size_t>(p)] = 1;
  return j.record.num_nodes;
}

std::int32_t Simulator::preempt_one(PartitionId p, SimTime requeue_delay) {
  const JobId id = pick_victim(p);
  if (id < 0) return 0;
  auto& j = jobs_[static_cast<std::size_t>(id)];
  trace_job_event(obs::TraceEventKind::kJobRun, j, id);  // run up to the checkpoint
  trace_job_event(obs::TraceEventKind::kJobPreempt, j, id);
  // Checkpoint: the remaining runtime survives; the limit is unchanged
  // (Slurm requeue semantics). start/end are reassigned on restart.
  j.record.actual_runtime = std::max<SimTime>(0, j.duration() - (now_ - j.start));
  j.status = JobStatus::kPreempted;
  j.start = trace::kUnsetTime;
  j.end = trace::kUnsetTime;
  j.record.start_time = trace::kUnsetTime;
  j.record.end_time = trace::kUnsetTime;
  kernel_.cluster().release(j.placed, j.record.num_nodes);
  running_.erase(std::find(running_.begin(), running_.end(), id));
  profile_stale_[static_cast<std::size_t>(p)] = 1;
  scan_dirty_[static_cast<std::size_t>(p)] = 1;
  push_event(now_ + std::max<SimTime>(0, requeue_delay), EventType::kRequeue, id);
  return j.record.num_nodes;
}

double Simulator::priority(const SimJob& j, double total_nodes_denom) const {
  const SimTime age = std::min(now_ - j.record.submit_time, config_.age_cap);
  const double age_part =
      config_.age_weight * static_cast<double>(age) / static_cast<double>(config_.age_cap);
  const double size_part =
      config_.size_weight * static_cast<double>(j.record.num_nodes) / total_nodes_denom;
  return age_part + size_part;
}

void Simulator::start_job(JobId id, PartitionId p) {
  auto& j = jobs_[static_cast<std::size_t>(id)];
  kernel_.cluster().allocate(p, j.record.num_nodes);
  if (config_.backfill) {
    // O(Δ) profile update: free drops until the limit-based release.
    base_profiles_[static_cast<std::size_t>(p)].occupy(now_, j.record.time_limit,
                                                       j.record.num_nodes);
  }
  j.status = JobStatus::kRunning;
  j.placed = p;
  j.start = now_;
  j.record.start_time = now_;
  running_.push_back(id);
  start_log_.emplace_back(now_, now_ - j.record.submit_time);
  push_event(now_ + j.duration(), EventType::kFinish, id);
}

double Simulator::recent_average_wait(SimTime window) const {
  // start_log_ is append-ordered by start time; scan the recent suffix.
  double sum = 0.0;
  std::size_t n = 0;
  for (auto it = start_log_.rbegin(); it != start_log_.rend(); ++it) {
    if (it->first < now_ - window) break;
    sum += static_cast<double>(it->second);
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

bool Simulator::sort_pending() {
  // Highest priority first; FIFO (earlier submit, then lower id) tie-break.
  // The size-factor denominator is hoisted out of the comparator (capacity
  // cannot change mid-sort; summing partitions per comparison would not),
  // and the priority itself is cached per job — same doubles, same order,
  // computed once instead of once per comparison.
  const auto& model = kernel_.cluster();
  const double total_denom = static_cast<double>(std::max(model.total_nodes(), 1));
  sort_keys_.clear();
  bool has_roaming = false;
  for (const JobId id : pending_) {
    const auto& j = jobs_[static_cast<std::size_t>(id)];
    if (j.constraint == kAnyPartition) has_roaming = true;
    sort_keys_.push_back(SortKey{priority(j, total_denom), j.record.submit_time, id});
  }
  const auto by_priority = [](const SortKey& a, const SortKey& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.submit != b.submit) return a.submit < b.submit;
    return a.id < b.id;
  };
  // The comparator is a strict total order (ids break every tie), so the
  // sorted permutation is unique — when the previous pass's order is still
  // sorted under today's priorities (the common case: ages grow in
  // lockstep until the age cap), the O(n log n) sort is a provable no-op.
  if (!std::is_sorted(sort_keys_.begin(), sort_keys_.end(), by_priority)) {
    std::sort(sort_keys_.begin(), sort_keys_.end(), by_priority);
    for (std::size_t i = 0; i < pending_.size(); ++i) pending_[i] = sort_keys_[i].id;
  }
  return has_roaming;
}

void Simulator::rebuild_profile_into(AvailabilityProfile& out, PartitionId p) const {
  out.reset(now_, kernel_.cluster().free_nodes(p));
  for (const JobId rid : running_) {
    const auto& rj = jobs_[static_cast<std::size_t>(rid)];
    if (rj.placed != p) continue;
    out.add_release(rj.start + rj.record.time_limit, rj.record.num_nodes);
  }
}

void Simulator::sync_profile(PartitionId p) {
  const auto pi = static_cast<std::size_t>(p);
  const auto& model = kernel_.cluster();
  const bool stale = profile_stale_[pi] || profile_epoch_[pi] != model.capacity_epoch(p);
  if (stale) {
    rebuild_profile_into(base_profiles_[pi], p);
  } else {
    base_profiles_[pi].advance_to(now_, model.free_nodes(p));
    if (validate_profiles_) {
      rebuild_profile_into(check_profile_, p);
      if (!(base_profiles_[pi] == check_profile_)) {
        std::ostringstream msg;
        msg << "incremental availability profile diverged from the from-scratch "
               "construction (partition "
            << p << ", t=" << now_ << ", " << base_profiles_[pi].step_count()
            << " vs " << check_profile_.step_count() << " steps)";
        throw std::logic_error(msg.str());
      }
    }
  }
  profile_stale_[pi] = 0;
  profile_epoch_[pi] = model.capacity_epoch(p);
}

void Simulator::schedule_pass_no_backfill() {
  // Pure priority scheduling: per partition, start strictly in order
  // until one job does not fit; everything behind it (in that partition)
  // waits. A roaming job takes the lowest-index open partition that
  // fits, and blocks every open partition when none does.
  const auto& model = kernel_.cluster();
  const std::int32_t nparts = model.partition_count();
  std::fill(blocked_.begin(), blocked_.end(), char{0});
  still_pending_.clear();
  for (const JobId id : pending_) {
    const auto& j = jobs_[static_cast<std::size_t>(id)];
    PartitionId chosen = kAnyPartition;
    if (j.constraint != kAnyPartition) {
      if (!blocked_[static_cast<std::size_t>(j.constraint)] &&
          model.can_allocate(j.constraint, j.record.num_nodes)) {
        chosen = j.constraint;
      }
    } else {
      for (PartitionId p = 0; p < nparts; ++p) {
        if (!blocked_[static_cast<std::size_t>(p)] &&
            model.can_allocate(p, j.record.num_nodes)) {
          chosen = p;
          break;
        }
      }
    }
    if (chosen != kAnyPartition) {
      start_job(id, chosen);
      continue;
    }
    if (j.constraint != kAnyPartition) {
      blocked_[static_cast<std::size_t>(j.constraint)] = 1;
    } else {
      std::fill(blocked_.begin(), blocked_.end(), char{1});
    }
    still_pending_.push_back(id);
  }
  pending_.swap(still_pending_);
}

void Simulator::schedule_pass() {
  // Sampled: a pass runs in ~1 µs, so timing every one costs ~10% of the
  // pass itself; 1-in-64 still yields thousands of samples per sweep while
  // keeping the two clock reads and the shared-ring write off most passes.
  OBS_SPAN_SAMPLED("sim_schedule_pass", 6);
  needs_schedule_ = false;
  ++scheduler_passes_;
  if (pending_.empty()) return;

  const auto& model = kernel_.cluster();
  const std::int32_t nparts = model.partition_count();
  const bool has_roaming = sort_pending();

  if (!config_.backfill) {
    schedule_pass_no_backfill();
    return;
  }

  // ---- decide which partitions actually need a scan this pass ----
  // A partition is dirty when capacity was freed or edited (finish /
  // kill / preempt / any kernel capacity change, the latter via the
  // capacity epoch) or a new pending candidate targets it.
  bool any_dirty = false;
  for (PartitionId p = 0; p < nparts; ++p) {
    const auto pi = static_cast<std::size_t>(p);
    const bool dirty = scan_dirty_[pi] != 0 || profile_stale_[pi] != 0 ||
                       profile_epoch_[pi] != model.capacity_epoch(p);
    scan_now_[pi] = dirty ? 1 : 0;
    any_dirty |= dirty;
  }

  if (has_roaming) {
    // A roaming job consults every partition's profile, entangling them:
    // either the whole pass is provably a no-op (nothing dirty anywhere
    // and the priority order is unchanged, so every job re-derives its
    // previous blocked verdict) or everything is scanned.
    if (!any_dirty && std::equal(pending_.begin(), pending_.end(), last_full_order_.begin(),
                                 last_full_order_.end())) {
      return;
    }
    std::fill(scan_now_.begin(), scan_now_.end(), char{1});
  } else {
    // Pinned-only queues decouple the partitions: partition p's scan is a
    // pure function of its ordered pending subsequence and its profile.
    // With neither changed, rescanning provably starts nothing (free
    // capacity only rises at release steps, and none passed — the
    // partition would be dirty) — skip it.
    bool all_skippable = true;
    for (auto& q : part_queue_) q.clear();
    for (const JobId id : pending_) {
      const auto& j = jobs_[static_cast<std::size_t>(id)];
      part_queue_[static_cast<std::size_t>(j.constraint)].push_back(id);
    }
    for (PartitionId p = 0; p < nparts; ++p) {
      const auto pi = static_cast<std::size_t>(p);
      if (!scan_now_[pi] && part_queue_[pi] != last_queue_[pi]) scan_now_[pi] = 1;
      if (scan_now_[pi] && !part_queue_[pi].empty()) all_skippable = false;
      if (scan_now_[pi] && part_queue_[pi].empty()) {
        // Dirty but queue-less: nothing to scan; just note the fresh
        // capacity state so the dirt does not linger.
        scan_now_[pi] = 0;
        scan_dirty_[pi] = 0;
        profile_stale_[pi] = 1;  // resync lazily when a candidate appears
      }
    }
    if (all_skippable) return;
  }

  // ---- sync profiles and reset per-partition budgets for scanned parts ----
  for (PartitionId p = 0; p < nparts; ++p) {
    const auto pi = static_cast<std::size_t>(p);
    if (!scan_now_[pi]) continue;
    sync_profile(p);
    pass_profiles_[pi].assign(base_profiles_[pi]);
    reservations_[pi] = 0;
    scanned_past_blocked_[pi] = 0;
    blocked_[pi] = 0;
  }

  // ---- backfill with capped-depth reservations (Slurm bf_max_job_test
  // style): walk the queue in priority order over per-partition limit-
  // based availability profiles. A job starts iff it fits *now* without
  // delaying any higher-priority reservation in its partition; per
  // partition, the first `reservation_depth` blocked jobs pin forward
  // reservations that later candidates must respect. Roaming jobs use the
  // partition with the earliest fit (ties to the lowest index). ----
  still_pending_.clear();
  for (const JobId id : pending_) {
    const auto& j = jobs_[static_cast<std::size_t>(id)];
    if (j.constraint != kAnyPartition && !scan_now_[static_cast<std::size_t>(j.constraint)]) {
      still_pending_.push_back(id);  // skipped partition: verdict unchanged
      continue;
    }
    // When the job's partition is known before any profile query (pinned,
    // or a roamer on a single-partition cluster), apply the candidate
    // budget first: a pruned job's earliest_fit is never consulted, so
    // skipping its computation is free — on backlogged passes that is
    // most of the queue. The counter trajectory is identical either way.
    PartitionId pre = j.constraint != kAnyPartition ? j.constraint
                      : nparts == 1                 ? PartitionId{0}
                                                    : kAnyPartition;
    if (pre != kAnyPartition) {
      const auto pb = static_cast<std::size_t>(pre);
      if (blocked_[pb] && ++scanned_past_blocked_[pb] > config_.max_backfill_candidates) {
        still_pending_.push_back(id);
        continue;
      }
    }
    PartitionId best = pre != kAnyPartition ? pre : 0;
    SimTime best_start = pass_profiles_[static_cast<std::size_t>(best)].earliest_fit(
        now_, j.record.num_nodes, j.record.time_limit);
    if (j.constraint == kAnyPartition) {
      for (PartitionId p = 1; p < nparts; ++p) {
        const SimTime s = pass_profiles_[static_cast<std::size_t>(p)].earliest_fit(
            now_, j.record.num_nodes, j.record.time_limit);
        if (s < best_start) {
          best_start = s;
          best = p;
        }
      }
    }
    const auto bi = static_cast<std::size_t>(best);
    if (pre == kAnyPartition && blocked_[bi] &&
        ++scanned_past_blocked_[bi] > config_.max_backfill_candidates) {
      still_pending_.push_back(id);
      continue;
    }
    if (best_start == now_) {
      start_job(id, best);
      pass_profiles_[bi].reserve(now_, j.record.time_limit, j.record.num_nodes);
      continue;
    }
    blocked_[bi] = 1;
    if (reservations_[bi] < config_.reservation_depth) {
      pass_profiles_[bi].reserve(best_start, j.record.time_limit, j.record.num_nodes);
      ++reservations_[bi];
    }
    still_pending_.push_back(id);
  }
  pending_.swap(still_pending_);

  // ---- post-pass bookkeeping: scanned partitions are now clean, and the
  // recorded orders are what the skip checks compare against next pass ----
  for (PartitionId p = 0; p < nparts; ++p) {
    const auto pi = static_cast<std::size_t>(p);
    if (scan_now_[pi]) scan_dirty_[pi] = 0;
  }
  last_full_order_.assign(pending_.begin(), pending_.end());
  for (auto& q : last_queue_) q.clear();
  for (const JobId id : pending_) {
    const auto& j = jobs_[static_cast<std::size_t>(id)];
    if (j.constraint != kAnyPartition) {
      last_queue_[static_cast<std::size_t>(j.constraint)].push_back(id);
    }
  }
}

StateSample Simulator::sample() const {
  StateSample s;
  sample_into(s);
  return s;
}

void Simulator::sample_into(StateSample& s) const {
  s.now = now_;
  const auto& model = kernel_.cluster();
  s.total_nodes = model.total_nodes();
  s.free_nodes = model.free_nodes();
  const std::int32_t nparts = model.partition_count();
  s.partition_total.clear();
  s.partition_free.clear();
  s.partition_total.reserve(static_cast<std::size_t>(nparts));
  s.partition_free.reserve(static_cast<std::size_t>(nparts));
  for (PartitionId p = 0; p < nparts; ++p) {
    s.partition_total.push_back(model.total_nodes(p));
    s.partition_free.push_back(model.free_nodes(p));
  }
  s.queued_sizes.clear();
  s.queued_ages.clear();
  s.queued_limits.clear();
  s.queued_sizes.reserve(pending_.size());
  s.queued_ages.reserve(pending_.size());
  s.queued_limits.reserve(pending_.size());
  for (JobId id : pending_) {
    const auto& j = jobs_[static_cast<std::size_t>(id)];
    s.queued_sizes.push_back(static_cast<double>(j.record.num_nodes));
    s.queued_ages.push_back(static_cast<double>(now_ - j.record.submit_time));
    s.queued_limits.push_back(static_cast<double>(j.record.time_limit));
  }
  s.running_sizes.clear();
  s.running_elapsed.clear();
  s.running_limits.clear();
  s.running_sizes.reserve(running_.size());
  s.running_elapsed.reserve(running_.size());
  s.running_limits.reserve(running_.size());
  for (JobId id : running_) {
    const auto& j = jobs_[static_cast<std::size_t>(id)];
    s.running_sizes.push_back(static_cast<double>(j.record.num_nodes));
    s.running_elapsed.push_back(static_cast<double>(now_ - j.start));
    s.running_limits.push_back(static_cast<double>(j.record.time_limit));
  }
}

JobStatus Simulator::status(JobId id) const {
  return jobs_.at(static_cast<std::size_t>(id)).status;
}

SimTime Simulator::start_time(JobId id) const {
  return jobs_.at(static_cast<std::size_t>(id)).start;
}

SimTime Simulator::end_time(JobId id) const { return jobs_.at(static_cast<std::size_t>(id)).end; }

Trace Simulator::export_schedule() const {
  Trace out;
  out.reserve(jobs_.size());
  for (const auto& j : jobs_) out.push_back(j.record);
  return out;
}

Trace replay_trace(const Trace& workload, ClusterModel cluster, SchedulerConfig config) {
  Simulator sim(std::move(cluster), config);
  sim.load_workload(workload);
  sim.run_to_completion();
  return sim.export_schedule();
}

}  // namespace mirage::sim
