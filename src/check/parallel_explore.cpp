#include "src/check/parallel_explore.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/check/explore_core.h"
#include "src/check/explore_merge.h"
#include "src/check/state_table.h"

namespace revisim::check {
namespace {

using Clock = std::chrono::steady_clock;
using runtime::ProcessId;

// Lexicographic region order shared with the merge and the distributed
// coordinator; see explore_merge.h for why this is exactly serial DFS
// order.
using detail::key_less;

struct JobRecord {
  enum State : int { kPending, kRunning, kDone, kFailed, kAborted };

  std::vector<ProcessId> key;      // prefix + first choice; see key_less
  std::vector<ProcessId> prefix;   // path to the job's root node
  std::vector<ProcessId> choices;  // untried choices there; empty = all (root)
  std::vector<ProcessId> sleep;    // POR: Donation::sleep for the split node
  std::size_t sleep_inherited = 0;  // POR: Donation::sleep_inherited
  std::unique_ptr<ExplorableWorld> warm;  // donated checkpoint at `prefix`
  std::size_t donor = 0;           // worker that split this job off
  bool donated = false;            // false only for the seed job
  State state = kPending;          // guarded by the coordinator mutex
  // Executions counted so far, published live by the engine.  Summing the
  // counters of lexicographically earlier records lower-bounds the serial
  // execution count before this record's region (each counter never exceeds
  // its region's serial total), which is what keeps cap-skipping sound.
  std::atomic<std::uint64_t> live_execs{0};
  detail::SubtreeResult result;    // valid once state == kDone
  std::string error;               // valid once state == kFailed
};

// Everything the workers share, guarded by `mu` unless noted.
struct Coordinator {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::unique_ptr<JobRecord>> records;  // append-only
  std::size_t pending = 0;
  std::size_t running = 0;
  std::size_t hungry = 0;  // workers blocked waiting for a job
  bool stop = false;       // deadline fired; claim nothing further
  // Key of the lex-smallest violation found so far (empty = none), with a
  // lock-free has-a-violation gate so probes stay cheap until one exists.
  std::vector<ProcessId> violation_key;
  std::atomic<std::uint64_t> violation_version{0};
  // Lock-free mirror of `hungry` polled by donors once per node expansion.
  std::atomic<int> hungry_hint{0};
  std::atomic<std::size_t> steals{0};

  // Sum of live execution counters over records lex-before `key`.  Caller
  // holds `mu` (the records vector may be growing).
  std::uint64_t bound_before(const std::vector<ProcessId>& key) const {
    std::uint64_t sum = 0;
    for (const auto& r : records) {
      if (key_less(r->key, key)) {
        sum += r->live_execs.load(std::memory_order_relaxed);
      }
    }
    return sum;
  }
};

void run_one_worker(Coordinator& co, std::size_t worker_id,
                    const std::function<std::unique_ptr<ExplorableWorld>()>&
                        factory,
                    const ParallelExploreOptions& options, StateTable* table,
                    std::uint64_t cap,
                    const std::optional<Clock::time_point>& deadline) {
  // Per-worker warm pool: persists across every job this worker runs,
  // adapts its capacity to what checkpoint resumption actually earns here.
  detail::WarmPool pool(options.base.warm_worlds, /*adaptive=*/true,
                        options.base.warm_worlds);
  auto past_deadline = [&] { return deadline && Clock::now() >= *deadline; };

  std::unique_lock<std::mutex> lk(co.mu);
  for (;;) {
    // Claim the lexicographically earliest pending job: earlier regions
    // finish earlier, which tightens every later job's cap bound and lets a
    // violation cut the most work.
    JobRecord* rec = nullptr;
    while (!co.stop) {
      if (past_deadline()) {
        co.stop = true;
        co.cv.notify_all();
        break;
      }
      for (const auto& r : co.records) {
        if (r->state == JobRecord::kPending &&
            (rec == nullptr || key_less(r->key, rec->key))) {
          rec = r.get();
        }
      }
      if (rec != nullptr || (co.pending == 0 && co.running == 0)) {
        break;
      }
      ++co.hungry;
      co.hungry_hint.fetch_add(1, std::memory_order_relaxed);
      if (deadline) {
        if (co.cv.wait_until(lk, *deadline) == std::cv_status::timeout) {
          co.stop = true;
          co.cv.notify_all();
        }
      } else {
        co.cv.wait(lk);
      }
      --co.hungry;
      co.hungry_hint.fetch_sub(1, std::memory_order_relaxed);
    }
    if (rec == nullptr || co.stop) {
      co.cv.notify_all();  // cascade termination to the other waiters
      return;
    }
    rec->state = JobRecord::kRunning;
    --co.pending;
    ++co.running;
    if (rec->donated && rec->donor != worker_id) {
      co.steals.fetch_add(1, std::memory_order_relaxed);
    }

    // Pre-skip jobs whose result the merge provably cannot read: the merge
    // returns at or before a secured lex-earlier violation, and it returns
    // once cumulative executions reach the cap, which the bound
    // lower-bounds.
    const std::uint64_t before = co.bound_before(rec->key);
    const bool dead_key =
        co.violation_version.load(std::memory_order_relaxed) != 0 &&
        key_less(co.violation_key, rec->key);
    if (before >= cap || dead_key) {
      rec->state = JobRecord::kAborted;
      --co.running;
      if (co.pending == 0 && co.running == 0) {
        co.cv.notify_all();
      }
      continue;
    }

    detail::SubtreeOptions sub = detail::subtree_options(options.base);
    sub.max_executions = static_cast<std::size_t>(cap - before);
    sub.table = table;
    sub.live_executions = &rec->live_execs;

    // The engine probes after every execution.  The deadline is checked
    // every time; the cap/violation check takes the coordinator mutex and
    // scans every job record while other workers keep publishing their
    // live counters, so it runs only on every probe_interval-th call.
    // Deferring it is sound: it only cuts work past the merge's return
    // point, and the live counters it sums stay lower bounds.
    std::uint64_t probes = 0;
    auto abort = [&co, rec, cap, &past_deadline, &probes,
                  interval = options.base.probe_interval] {
      if (past_deadline()) {
        return true;
      }
      if (probes++ % interval != 0) {
        return false;
      }
      std::lock_guard<std::mutex> g(co.mu);
      if (co.violation_version.load(std::memory_order_relaxed) != 0 &&
          key_less(co.violation_key, rec->key)) {
        return true;
      }
      return co.bound_before(rec->key) >= cap;
    };

    lk.unlock();
    bool done = false;
    std::string failure;
    detail::SubtreeResult jr;
    for (std::size_t attempt = 0;
         attempt <= options.job_retries && !done && !past_deadline();
         ++attempt) {
      // A fresh attempt replays the whole region from scratch; wind the
      // live counter back so the cap bound never double-counts.
      rec->live_execs.store(0, std::memory_order_relaxed);
      std::size_t donated_this_attempt = 0;
      detail::JobContext ctx;
      if (!rec->choices.empty()) {
        ctx.root_choices = &rec->choices;
        ctx.root_sleep = &rec->sleep;
        ctx.root_sleep_inherited = rec->sleep_inherited;
      }
      ctx.warm = std::move(rec->warm);  // first attempt only; then null
      ctx.pool = &pool;
      ctx.split.want = [&co] {
        return co.hungry_hint.load(std::memory_order_relaxed) > 0;
      };
      ctx.split.take = [&co, worker_id,
                        &donated_this_attempt](detail::Donation& d) {
        std::lock_guard<std::mutex> g(co.mu);
        if (co.stop || co.hungry <= co.pending) {
          return false;  // nobody actually starving; donor keeps the work
        }
        auto child = std::make_unique<JobRecord>();
        child->key = d.prefix;
        child->key.push_back(d.choices[0]);
        child->prefix = std::move(d.prefix);
        child->choices = std::move(d.choices);
        child->sleep = std::move(d.sleep);
        child->sleep_inherited = d.sleep_inherited;
        child->warm = std::move(d.warm);
        child->donor = worker_id;
        child->donated = true;
        co.records.push_back(std::move(child));
        ++co.pending;
        ++donated_this_attempt;
        co.cv.notify_one();
        return true;
      };
      try {
        jr = detail::explore_job(factory, rec->prefix, sub, abort, &ctx);
        done = true;
      } catch (const std::exception& e) {
        failure = e.what();
      } catch (...) {
        failure = "unknown exception";
      }
      if (!done && donated_this_attempt > 0) {
        break;  // a retry would re-explore the regions already donated
      }
    }
    lk.lock();
    if (done) {
      rec->live_execs.store(jr.executions, std::memory_order_relaxed);
      if (jr.violation &&
          (co.violation_version.load(std::memory_order_relaxed) == 0 ||
           key_less(rec->key, co.violation_key))) {
        co.violation_key = rec->key;
        co.violation_version.fetch_add(1, std::memory_order_relaxed);
      }
      rec->result = std::move(jr);
      // Partial walks (deadline / cap / violation aborts) are stored as
      // kDone too: the merge either never reads them (cap- and
      // violation-aborted regions sit past its return point) or reports
      // the truncation they represent (deadline).
      rec->state = JobRecord::kDone;
    } else if (!failure.empty()) {
      rec->error = failure;
      rec->state = JobRecord::kFailed;
    } else {
      // The deadline expired before any attempt completed or threw; the
      // job effectively never ran.  The merge reports the timeout.
      rec->state = JobRecord::kPending;
      ++co.pending;
    }
    --co.running;
    co.cv.notify_all();  // wake waiters: new bound, or termination
  }
}

// threads == 1: the serial engine inline, with the parallel explorer's
// retry and wall-clock envelopes but none of its machinery.  Bit-identical
// to explore_schedules by construction (same engine, same options).
ScheduleExploreResult explore_inline(
    const std::function<std::unique_ptr<ExplorableWorld>()>& factory,
    const ParallelExploreOptions& options,
    const std::optional<Clock::time_point>& deadline) {
  auto past_deadline = [&] { return deadline && Clock::now() >= *deadline; };
  const detail::SubtreeOptions sub = detail::subtree_options(options.base);
  detail::AbortProbe abort;
  if (deadline) {
    abort = past_deadline;
  }

  bool done = false;
  std::string failure;
  detail::SubtreeResult sr;
  for (std::size_t attempt = 0;
       attempt <= options.job_retries && !done && !past_deadline();
       ++attempt) {
    try {
      sr = detail::explore_subtree(factory, {}, sub, abort);
      done = true;
    } catch (const std::exception& e) {
      failure = e.what();
    } catch (...) {
      failure = "unknown exception";
    }
  }

  if (done) {
    ScheduleExploreResult res = detail::to_explore_result(std::move(sr));
    res.timed_out = !res.exhausted && past_deadline();
    return res;
  }
  ScheduleExploreResult res;
  res.jobs = 1;
  res.exhausted = false;
  if (failure.empty()) {
    res.timed_out = true;  // the deadline expired before any attempt ended
  } else {
    res.error = "subtree job failed after " +
                std::to_string(options.job_retries + 1) + " attempt(s): " +
                failure;
  }
  return res;
}

}  // namespace

ScheduleExploreResult parallel_explore_schedules(
    const std::function<std::unique_ptr<ExplorableWorld>()>& factory,
    const ParallelExploreOptions& options) {
  validate(options.base);
  const std::uint64_t cap =
      std::max<std::uint64_t>(options.base.max_executions, 1);
  const std::optional<Clock::time_point> deadline =
      options.time_limit.count() > 0
          ? std::optional<Clock::time_point>(Clock::now() + options.time_limit)
          : std::nullopt;

  std::size_t threads = options.threads != 0
                            ? options.threads
                            : std::max(1u, std::thread::hardware_concurrency());
  if (threads == 1) {
    return explore_inline(factory, options, deadline);
  }

  // Serial probe (see ParallelExploreOptions::serial_probe_executions):
  // spawning and synchronizing a pool costs far more than a small tree
  // costs to walk outright, so give the serial engine a bounded head start
  // and keep its result whenever it is conclusive on its own - tree
  // exhausted, violation found (serial DFS order makes it the lex-smallest,
  // so the pool could not report a different one), or the probe already ran
  // to the caller's cap.  An inconclusive probe is discarded whole: the
  // pool recounts from scratch, so the cap accounting never double-counts.
  if (options.serial_probe_executions > 0) {
    const std::uint64_t probe_cap =
        std::min<std::uint64_t>(cap, options.serial_probe_executions);
    auto past_deadline = [&] { return deadline && Clock::now() >= *deadline; };
    detail::SubtreeOptions sub = detail::subtree_options(options.base);
    sub.max_executions = static_cast<std::size_t>(probe_cap);
    detail::AbortProbe abort;
    if (deadline) {
      abort = past_deadline;
    }
    try {
      auto sr = detail::explore_subtree(factory, {}, sub, abort);
      if (sr.fully_explored || sr.violation.has_value() || probe_cap >= cap) {
        ScheduleExploreResult res = detail::to_explore_result(std::move(sr));
        res.timed_out = !res.exhausted && past_deadline();
        return res;
      }
    } catch (...) {
      // A deterministic throw will resurface in a worker, where the retry
      // and graceful-degradation machinery owns it; a transient one is
      // simply absorbed here.
    }
  }
  // Workers beyond the core count cannot run subtrees faster, they only
  // interleave them - the measured failure mode of the pre-rework
  // frontier-split explorer.  Tests opt out to force steals anywhere.
  std::size_t workers =
      options.oversubscribe
          ? threads
          : std::min<std::size_t>(
                threads, std::max(1u, std::thread::hardware_concurrency()));

  // One transposition table shared by every worker (lock-free CAS inserts;
  // a mutex only in audit mode).
  std::unique_ptr<StateTable> table;
  if (options.base.dedupe_states) {
    table = std::make_unique<StateTable>(
        StateTable::Options{.audit = options.base.dedupe_audit});
  }

  Coordinator co;
  {
    auto seed = std::make_unique<JobRecord>();  // the whole tree; empty key
    co.records.push_back(std::move(seed));
    co.pending = 1;
  }

  auto worker_fn = [&](std::size_t id) {
    run_one_worker(co, id, factory, options, table.get(), cap, deadline);
  };
  if (workers == 1) {
    // Clamped to one worker: the stealing runtime with no second thread -
    // nobody is ever hungry, so no donations, no steals, one job.
    worker_fn(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) {
      pool.emplace_back(worker_fn, t);
    }
    for (auto& t : pool) {
      t.join();
    }
  }

  // Deterministic merge (explore_merge.h): steal timing and worker
  // interleaving influenced only results the merge never reads (with
  // dedupe off; with it on, the shared table makes counts
  // interleaving-dependent - see the header).  Table statistics are global
  // and attach to every return path, as do the stealing counters.
  std::vector<detail::MergeJob> order;
  order.reserve(co.records.size());
  for (const auto& r : co.records) {
    detail::MergeJob j;
    j.key = &r->key;
    switch (r->state) {
      case JobRecord::kDone:
        j.state = detail::MergeJob::State::kDone;
        j.result = &r->result;
        break;
      case JobRecord::kFailed:
        j.state = detail::MergeJob::State::kFailed;
        j.error = &r->error;
        break;
      default:
        j.state = detail::MergeJob::State::kUnfinished;
        break;
    }
    order.push_back(j);
  }
  ScheduleExploreResult res = detail::merge_job_results(
      order, cap, options.job_retries + 1, /*unfinished_error=*/{});
  res.jobs = co.records.size();
  res.steals = co.steals.load(std::memory_order_relaxed);
  if (table) {
    res.states_seen = table->states();
    res.subtrees_pruned = table->hits();
  }
  return res;
}

}  // namespace revisim::check
