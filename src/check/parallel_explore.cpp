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

// A job record plus the donated checkpoint world parked at its prefix.
struct ThreadJob : detail::JobRecord {
  std::unique_ptr<ExplorableWorld> warm;
};

// Everything the workers share, guarded by `mu` unless noted.
struct Coordinator {
  Coordinator(std::uint64_t cap, const ParallelExploreOptions& options)
      : jobs(cap, options.job_retries, options.base.dedupe_states) {}

  std::mutex mu;
  std::condition_variable cv;
  detail::JobTable jobs;
  std::size_t hungry = 0;  // workers blocked waiting for a job
  bool stop = false;       // deadline fired; claim nothing further
  // Lock-free mirror of `hungry` polled by donors once per node expansion.
  std::atomic<int> hungry_hint{0};
};

void run_one_worker(Coordinator& co, std::size_t worker_id,
                    const std::function<std::unique_ptr<ExplorableWorld>()>&
                        factory,
                    const ParallelExploreOptions& options, StateTable* table,
                    const std::optional<Clock::time_point>& deadline) {
  // Per-worker warm pool: persists across every job this worker runs.
  detail::WarmPool pool(options.base.warm_worlds);
  auto past_deadline = [&] { return deadline && Clock::now() >= *deadline; };

  std::unique_lock<std::mutex> lk(co.mu);
  for (;;) {
    ThreadJob* rec = nullptr;
    std::uint64_t budget = 0;
    while (!co.stop) {
      if (past_deadline()) {
        co.stop = true;
        co.cv.notify_all();
        break;
      }
      rec = static_cast<ThreadJob*>(co.jobs.claim(worker_id, &budget));
      if (rec != nullptr ||
          (co.jobs.pending() == 0 && co.jobs.running() == 0)) {
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
    if (rec == nullptr) {
      co.cv.notify_all();  // cascade termination to the other waiters
      return;
    }

    detail::SubtreeOptions sub = detail::subtree_options(options.base);
    sub.max_executions = static_cast<std::size_t>(budget);
    if (rec->no_dedupe) {
      sub.dedupe_states = false;
      sub.dedupe_adaptive = false;
    } else {
      sub.table = table;
    }
    sub.live_executions = &rec->live;

    // The engine probes after every execution.  The deadline is checked
    // every time; the readability check takes the coordinator mutex and
    // scans every job record while other workers keep publishing their
    // live counters, so it runs only on every probe_interval-th call.
    // Deferring it is sound: it only cuts work past the merge's return
    // point, and the live counters it sums stay lower bounds.
    std::uint64_t probes = 0;
    auto abort = [&co, rec, &past_deadline, &probes,
                  interval = options.base.probe_interval] {
      if (past_deadline()) {
        return true;
      }
      if (probes++ % interval != 0) {
        return false;
      }
      std::lock_guard<std::mutex> g(co.mu);
      return !co.jobs.readable(*rec);
    };

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
    ctx.split.take = [&co, rec, worker_id](detail::Donation& d) {
      std::lock_guard<std::mutex> g(co.mu);
      if (co.stop || rec->cancelled || co.hungry <= co.jobs.pending()) {
        return false;  // nobody actually starving; donor keeps the work
      }
      auto child = std::make_unique<ThreadJob>();
      child->set_region(std::move(d.prefix), std::move(d.choices),
                        std::move(d.sleep), d.sleep_inherited);
      child->warm = std::move(d.warm);
      co.jobs.donate(std::move(child), *rec, worker_id);
      co.cv.notify_one();
      return true;
    };

    lk.unlock();
    std::optional<detail::SubtreeResult> walked;
    std::string failure;
    try {
      walked = detail::explore_job(factory, rec->prefix, sub, abort, &ctx);
    } catch (const std::exception& e) {
      failure = e.what();
    } catch (...) {
      failure = "unknown exception";
    }
    lk.lock();
    if (walked) {
      // Partial walks (deadline / cap / violation aborts) complete too: the
      // merge either never reads them (cap- and violation-aborted regions
      // sit past its return point) or reports the truncation they
      // represent (deadline).
      co.jobs.complete(*rec, std::move(*walked));
    } else {
      co.jobs.retry_or_fail(*rec, std::move(failure));
    }
    co.cv.notify_all();  // wake waiters: new job, new bound, or termination
  }
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

  // Serial probe (see ParallelExploreOptions::serial_probe_executions):
  // spawning and synchronizing a pool costs far more than a small tree
  // costs to walk outright, so give the serial engine a bounded head start
  // and keep its result whenever it is conclusive on its own - tree
  // exhausted, violation found (serial DFS order makes it the lex-smallest,
  // so the pool could not report a different one), or the probe already ran
  // to the caller's cap.  An inconclusive probe is discarded whole: the
  // pool recounts from scratch, so the cap accounting never double-counts.
  // A single thread has no pool to spare: it runs the one worker directly.
  if (threads > 1 && options.serial_probe_executions > 0) {
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
      auto sr = detail::explore_job(factory, {}, sub, abort);
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

  Coordinator co(cap, options);
  co.jobs.add(std::make_unique<ThreadJob>());  // the whole tree; empty key

  auto worker_fn = [&](std::size_t id) {
    run_one_worker(co, id, factory, options, table.get(), deadline);
  };
  if (workers == 1) {
    // One worker on the calling thread: the stealing runtime with no second
    // thread - nobody is ever hungry, so no donations, no steals, one job.
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
  // and attach to every return path.
  ScheduleExploreResult res = co.jobs.merge(/*unfinished_error=*/{});
  if (table) {
    res.states_seen = table->states();
    res.subtrees_pruned = table->hits();
  }
  return res;
}

}  // namespace revisim::check
