#include "src/check/explore_merge.h"

#include <algorithm>
#include <unordered_map>

namespace revisim::check::detail {

bool key_less(const std::vector<runtime::ProcessId>& a,
              const std::vector<runtime::ProcessId>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

ScheduleExploreResult merge_job_results(std::vector<MergeJob>& jobs,
                                        std::uint64_t cap,
                                        std::size_t attempts,
                                        const std::string& unfinished_error) {
  std::sort(jobs.begin(), jobs.end(), [](const MergeJob& a, const MergeJob& b) {
    return key_less(*a.key, *b.key);
  });

  // Completed-work telemetry first (see the header contract): these attach
  // to every return path below, including partial summaries.
  ScheduleExploreResult res;
  for (const MergeJob& j : jobs) {
    if (j.state == MergeJob::State::kDone) {
      res.subtrees_pruned += j.result->subtrees_pruned;
      res.replay_steps_saved += j.result->replay_steps_saved;
      res.por_skipped += j.result->por_skipped;
      res.dependent_wakeups += j.result->dependent_wakeups;
      res.footprint_bytes += j.result->footprint_bytes;
      res.dedupe_disabled_adaptively |= j.result->dedupe_disabled;
    }
  }

  // Serial replay accounting over the sorted regions.
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const MergeJob& j = jobs[i];
    if (j.state == MergeJob::State::kFailed) {
      // The job threw past its retry budget (or donated mid-failure).
      // Everything before it merged normally; report the partial summary
      // instead of rethrowing.
      res.executions = static_cast<std::size_t>(cum);
      res.exhausted = false;
      res.error = "subtree job failed after " + std::to_string(attempts) +
                  " attempt(s): " + *j.error;
      return res;
    }
    if (j.state != MergeJob::State::kDone) {
      // Never ran or was pre-skipped.  The merge returns strictly before
      // every record skipped for violation or cap reasons, so reaching one
      // here means the run lost the means to finish it: the wall-clock
      // limit expired, or (distributed) every worker disconnected.
      res.executions = static_cast<std::size_t>(cum);
      res.exhausted = false;
      if (unfinished_error.empty()) {
        res.timed_out = true;
      } else {
        res.error = unfinished_error;
      }
      return res;
    }
    const SubtreeResult& jr = *j.result;
    const std::uint64_t n = jr.executions;
    if (jr.violation && cum + jr.violation_index <= cap) {
      res.executions = static_cast<std::size_t>(cum + jr.violation_index);
      res.violation = jr.violation;
      res.witness = jr.witness;
      return res;  // exhausted stays true, as in the serial explorer
    }
    if (cum + n >= cap) {
      // The serial walk reaches the cap inside (or exactly at the end of)
      // this region.  It is a truncation iff any work would have remained:
      // a violation past the cap, a locally truncated walk, executions
      // beyond the cap, or any later record (every region holds >= 1
      // execution).
      const bool truncated = jr.violation.has_value() || !jr.fully_explored ||
                             cum + n > cap || i + 1 < jobs.size();
      res.executions = static_cast<std::size_t>(cap);
      res.exhausted = !truncated;
      return res;
    }
    if (!jr.fully_explored) {
      // Below the cap only a wall-clock abort leaves a merged job partially
      // explored (violation- and cap-aborted records sit past the merge's
      // return point, handled above).
      res.executions = static_cast<std::size_t>(cum + n);
      res.exhausted = false;
      if (unfinished_error.empty()) {
        res.timed_out = true;
      } else {
        res.error = unfinished_error;
      }
      return res;
    }
    cum += n;
  }
  res.executions = static_cast<std::size_t>(cum);
  res.exhausted = true;
  return res;
}

void JobRecord::set_region(std::vector<runtime::ProcessId> region_prefix,
                           std::vector<runtime::ProcessId> region_choices,
                           std::vector<runtime::ProcessId> region_sleep,
                           std::size_t region_sleep_inherited) {
  key = region_prefix;
  if (!region_choices.empty()) {
    key.push_back(region_choices[0]);
  }
  prefix = std::move(region_prefix);
  choices = std::move(region_choices);
  sleep = std::move(region_sleep);
  sleep_inherited = region_sleep_inherited;
}

JobRecord* JobTable::add(std::unique_ptr<JobRecord> rec) {
  rec->state = JobRecord::kPending;
  ++pending_;
  records_.push_back(std::move(rec));
  return records_.back().get();
}

JobRecord* JobTable::donate(std::unique_ptr<JobRecord> child,
                            JobRecord& parent, std::size_t donor) {
  child->donor = donor;
  child->donated = true;
  child->no_dedupe = parent.no_dedupe;
  parent.children.push_back(child.get());
  return add(std::move(child));
}

JobRecord* JobTable::claim(std::size_t worker, std::uint64_t* budget) {
  for (;;) {
    JobRecord* rec = nullptr;
    for (const auto& r : records_) {
      if (r->state == JobRecord::kPending &&
          (rec == nullptr || key_less(r->key, rec->key))) {
        rec = r.get();
      }
    }
    if (rec == nullptr) {
      return nullptr;
    }
    const std::uint64_t before = bound_before(rec->key);
    if (!readable(*rec, before)) {
      leave(*rec, JobRecord::kAborted);
      continue;
    }
    leave(*rec, JobRecord::kRunning);
    rec->live.store(0, std::memory_order_relaxed);
    if (rec->donated && rec->donor != worker) {
      ++steals_;
    }
    *budget = cap_ - before;
    return rec;
  }
}

std::uint64_t JobTable::bound_before(
    const std::vector<runtime::ProcessId>& key) const {
  std::uint64_t sum = 0;
  for (const auto& r : records_) {
    if (!r->cancelled && key_less(r->key, key)) {
      sum += r->live.load(std::memory_order_relaxed);
    }
  }
  return sum;
}

bool JobTable::readable(const JobRecord& rec) const {
  return readable(rec, bound_before(rec.key));
}

bool JobTable::readable(const JobRecord& rec, std::uint64_t before) const {
  return !rec.cancelled &&
         !(have_violation_ && key_less(violation_key_, rec.key)) &&
         before < cap_;
}

void JobTable::leave(JobRecord& rec, JobRecord::State next) {
  if (rec.state == JobRecord::kPending) {
    --pending_;
  } else if (rec.state == JobRecord::kRunning) {
    --running_;
  }
  if (next == JobRecord::kPending) {
    ++pending_;
  } else if (next == JobRecord::kRunning) {
    ++running_;
  }
  rec.state = next;
}

void JobTable::complete(JobRecord& rec, SubtreeResult result) {
  leave(rec, JobRecord::kDone);
  if (rec.cancelled) {
    return;  // the walk raced its cancellation; an ancestor re-covers it
  }
  rec.live.store(result.executions, std::memory_order_relaxed);
  if (result.violation &&
      (!have_violation_ || key_less(rec.key, violation_key_))) {
    have_violation_ = true;
    violation_key_ = rec.key;
  }
  rec.result = std::move(result);
}

bool JobTable::retry_or_fail(JobRecord& rec, std::string error,
                             std::vector<JobRecord*>* cancelled) {
  if (rec.cancelled || ++rec.failures > retries_) {
    leave(rec, JobRecord::kFailed);
    rec.error = std::move(error);
    return false;
  }
  cancel_descendants(rec, cancelled);
  leave(rec, JobRecord::kPending);
  rec.live.store(0, std::memory_order_relaxed);
  rec.no_dedupe = rec.no_dedupe || dedupe_;
  return true;
}

void JobTable::cancel_descendants(JobRecord& rec,
                                  std::vector<JobRecord*>* cancelled) {
  for (JobRecord* child : rec.children) {
    if (!child->cancelled) {
      child->cancelled = true;
      child->live.store(0, std::memory_order_relaxed);
      if (child->state == JobRecord::kPending) {
        leave(*child, JobRecord::kAborted);
      }
      if (cancelled != nullptr) {
        cancelled->push_back(child);
      }
    }
    cancel_descendants(*child, cancelled);
  }
}

ScheduleExploreResult JobTable::merge(
    const std::string& unfinished_error) const {
  std::vector<MergeJob> order;
  order.reserve(records_.size());
  for (const auto& r : records_) {
    if (r->cancelled) {
      continue;
    }
    MergeJob j;
    j.key = &r->key;
    if (r->state == JobRecord::kDone) {
      j.state = MergeJob::State::kDone;
      j.result = &r->result;
    } else if (r->state == JobRecord::kFailed) {
      j.state = MergeJob::State::kFailed;
      j.error = &r->error;
    }
    order.push_back(j);
  }
  ScheduleExploreResult res =
      merge_job_results(order, cap_, retries_ + 1, unfinished_error);
  res.jobs = order.size();
  res.steals = steals_;
  return res;
}

std::vector<ResumeAction> plan_resume(const std::vector<ResumeJob>& jobs) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    index.emplace(jobs[i].id, i);
  }
  // covered[i]: some proper ancestor of i is not done (so i's region is
  // re-covered by that ancestor's re-run).  Memoized walk up the parent
  // chain; journals are append-only so chains are acyclic, but a depth
  // guard keeps corrupt input from spinning.
  enum : std::int8_t { kUnknown = -1, kNo = 0, kYes = 1 };
  std::vector<std::int8_t> covered(jobs.size(), kUnknown);
  auto resolve = [&](std::size_t start) {
    std::vector<std::size_t> chain;
    std::size_t i = start;
    std::int8_t verdict = kNo;
    while (covered[i] == kUnknown) {
      chain.push_back(i);
      if (!jobs[i].has_parent) {
        break;
      }
      const auto it = index.find(jobs[i].parent);
      if (it == index.end() || chain.size() > jobs.size()) {
        verdict = kYes;  // orphan or cycle: conservatively discard
        break;
      }
      const std::size_t p = it->second;
      if (covered[p] != kUnknown) {
        verdict = covered[p] == kYes || !jobs[p].done ? kYes : kNo;
        break;
      }
      if (!jobs[p].done) {
        verdict = kYes;
        // The parent itself still resolves against ITS ancestors; only the
        // children below it are settled.  Stop the chain here.
        break;
      }
      i = p;
    }
    for (const std::size_t c : chain) {
      covered[c] = verdict;
    }
  };
  std::vector<ResumeAction> plan(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    resolve(i);
    if (covered[i] == kYes) {
      plan[i] = ResumeAction::kDiscard;
    } else {
      plan[i] = jobs[i].done ? ResumeAction::kReuse : ResumeAction::kRerun;
    }
  }
  return plan;
}

}  // namespace revisim::check::detail
