// Parallel schedule exploration and explorer-core semantics on worlds whose
// schedule trees are known in closed form.
//
// Each ScriptWorld process performs a fixed number of writes, and every
// write appends the process id to a world-local order log, so a completed
// execution's log *is* its schedule.  Leaf counts are multinomial
// coefficients and a planted violation's DFS index is the lexicographic
// rank of its schedule - which pins down cap-boundary accounting, the
// lexicographically-smallest-witness guarantee, and bit-identical results
// across thread counts, steal timings and warm-world pool sizes.  Parallel
// runs set `oversubscribe` so real worker threads (and therefore real
// steals and shared-table races) happen even on a single-core machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/augmented/augmented_snapshot.h"
#include "src/augmented/linearizer.h"
#include "src/check/crash_worlds.h"
#include "src/check/explore_core.h"
#include "src/check/explore_merge.h"
#include "src/check/model_check.h"
#include "src/check/parallel_explore.h"
#include "src/memory/register.h"
#include "src/runtime/scheduler.h"

namespace revisim {
namespace {

using aug::AugmentedSnapshot;
using check::ExplorableWorld;
using check::explore_schedules;
using check::detail::JobRecord;
using check::detail::JobTable;
using check::parallel_explore_schedules;
using check::ParallelExploreOptions;
using check::ScheduleExploreOptions;
using check::ScheduleExploreResult;
using runtime::ProcessId;
using runtime::Scheduler;
using runtime::StepKind;
using runtime::Task;

using Schedule = std::vector<ProcessId>;

Task<void> count_script(Scheduler& sched, std::size_t obj,
                        std::vector<ProcessId>& order, ProcessId me,
                        std::size_t writes) {
  for (std::size_t i = 0; i < writes; ++i) {
    co_await runtime::StepAwaiter<void>(
        sched, [&order, me] { order.push_back(me); }, obj, StepKind::kWrite,
        {});
  }
}

// Processes i = 0..n-1 perform writes[i] steps each; flags a violation on
// any completed execution whose schedule is in `planted`.
class ScriptWorld final : public ExplorableWorld {
 public:
  ScriptWorld(std::vector<std::size_t> writes, std::vector<Schedule> planted)
      : planted_(std::move(planted)) {
    const std::size_t obj = sched_.register_object("r");
    for (ProcessId p = 0; p < writes.size(); ++p) {
      sched_.spawn(count_script(sched_, obj, order_, p, writes[p]), "q");
    }
  }

  Scheduler& scheduler() override { return sched_; }

  std::optional<std::string> verdict(bool complete) override {
    if (complete &&
        std::find(planted_.begin(), planted_.end(), order_) != planted_.end()) {
      return "planted violation";
    }
    return std::nullopt;
  }

  // The verdict reads the world-local order log - state the scheduler digest
  // cannot see - so the soundness contract requires folding it into the
  // fingerprint.  Doing so makes every state unique (the log is the
  // schedule): dedupe must then prune nothing and reproduce undeduped
  // results bit-for-bit, which the tests below pin down.
  void fingerprint_extra(util::StateSink& sink) override {
    util::feed(sink, order_);
  }

 private:
  Scheduler sched_;
  std::vector<ProcessId> order_;
  std::vector<Schedule> planted_;
};

auto script_factory(std::vector<std::size_t> writes,
                    std::vector<Schedule> planted = {}) {
  return [writes = std::move(writes), planted = std::move(planted)] {
    return std::make_unique<ScriptWorld>(writes, planted);
  };
}

void expect_same(const ScheduleExploreResult& got,
                 const ScheduleExploreResult& want, const std::string& what) {
  EXPECT_EQ(got.executions, want.executions) << what;
  EXPECT_EQ(got.exhausted, want.exhausted) << what;
  EXPECT_EQ(got.violation, want.violation) << what;
  EXPECT_EQ(got.witness, want.witness) << what;
}

// --- cap accounting at the boundary (serial explorer) ---

TEST(ExploreCap, ExactlyAtTreeSizeIsExhausted) {
  // Two processes, two writes each: C(4,2) = 6 leaves.
  ScheduleExploreOptions opt;
  opt.max_executions = 6;
  auto res = explore_schedules(script_factory({2, 2}), opt);
  EXPECT_EQ(res.executions, 6u);
  EXPECT_TRUE(res.exhausted);  // the cap coincided with the end of the tree
  EXPECT_FALSE(res.violation);
}

TEST(ExploreCap, BelowTreeSizeTruncates) {
  ScheduleExploreOptions opt;
  opt.max_executions = 5;
  auto res = explore_schedules(script_factory({2, 2}), opt);
  EXPECT_EQ(res.executions, 5u);
  EXPECT_FALSE(res.exhausted);
}

TEST(ExploreCap, AboveTreeSizeIsExhausted) {
  ScheduleExploreOptions opt;
  opt.max_executions = 7;
  auto res = explore_schedules(script_factory({2, 2}), opt);
  EXPECT_EQ(res.executions, 6u);
  EXPECT_TRUE(res.exhausted);
}

TEST(ExploreCap, ViolationExactlyAtCapIsReported) {
  // Lex order of {0,0,1,1} schedules: 0011, 0101, 0110, 1001, 1010, 1100;
  // 0110 is the 3rd execution.
  const Schedule planted{0, 1, 1, 0};
  ScheduleExploreOptions opt;
  opt.max_executions = 3;
  auto res = explore_schedules(script_factory({2, 2}, {planted}), opt);
  ASSERT_TRUE(res.violation.has_value());
  EXPECT_EQ(res.executions, 3u);
  EXPECT_EQ(res.witness, planted);
}

TEST(ExploreCap, CapJustBeforeViolationTruncatesWithoutIt) {
  const Schedule planted{0, 1, 1, 0};
  ScheduleExploreOptions opt;
  opt.max_executions = 2;
  auto res = explore_schedules(script_factory({2, 2}, {planted}), opt);
  EXPECT_FALSE(res.violation);
  EXPECT_EQ(res.executions, 2u);
  EXPECT_FALSE(res.exhausted);
}

// --- warm-world checkpoint pool: pure optimization, identical semantics ---

TEST(ExploreCore, WarmWorldPoolSizeDoesNotChangeResults) {
  const Schedule planted{1, 0, 0, 1, 0, 1, 1, 0};
  for (std::size_t warm : {0u, 1u, 2u, 64u}) {
    ScheduleExploreOptions opt;
    opt.warm_worlds = warm;
    auto res = explore_schedules(script_factory({3, 3, 2}), opt);
    EXPECT_EQ(res.executions, 560u) << warm;  // 8! / (3!3!2!)
    EXPECT_TRUE(res.exhausted) << warm;

    auto viol = explore_schedules(script_factory({4, 4}, {planted}), opt);
    ASSERT_TRUE(viol.violation.has_value()) << warm;
    EXPECT_EQ(viol.witness, planted) << warm;
    // Rank of 10010110 among {0,1}-sequences with four of each, plus one.
    auto base = explore_schedules(script_factory({4, 4}, {planted}));
    EXPECT_EQ(viol.executions, base.executions) << warm;
  }
}

TEST(ExploreCore, RecordTracesDoesNotChangeResults) {
  for (bool record : {false, true}) {
    ScheduleExploreOptions opt;
    opt.record_traces = record;
    auto res = explore_schedules(script_factory({3, 3, 2}), opt);
    EXPECT_EQ(res.executions, 560u) << record;
    EXPECT_TRUE(res.exhausted) << record;
  }
}

TEST(ExploreCore, WarmPoolResumesARootWorldAfterAnEviction) {
  // A stale world (applied {1}) parked before a root world (applied {}):
  // acquiring for {0} evicts the stale one on the way and must still find
  // the root world, which saves no replay steps but spares a rebuild.
  auto parked_at = [](const Schedule& applied) {
    auto w = std::make_unique<ScriptWorld>(std::vector<std::size_t>{1, 1},
                                           std::vector<Schedule>{});
    w->scheduler().set_checkpointing(true);
    for (ProcessId e : applied) {
      runtime::apply_schedule_entry(w->scheduler(), e);
    }
    return w;
  };
  check::detail::WarmPool pool(2);
  auto root = parked_at({});
  const ExplorableWorld* root_world = root.get();
  pool.park(parked_at({1}));
  pool.park(std::move(root));
  std::size_t from_len = 99;
  auto got = pool.acquire({0}, 1, &from_len);
  EXPECT_EQ(got.get(), root_world);
  EXPECT_EQ(from_len, 0u);
}

// --- scheduler fast mode: step-for-step identical executions ---

Task<void> aug_mixed(AugmentedSnapshot& m, ProcessId me) {
  std::vector<std::size_t> comps{0};
  std::vector<Val> vals{Val(10 * (me + 1))};
  co_await m.BlockUpdate(me, comps, vals);
  co_await m.Scan(me);
}

TEST(FastMode, StepForStepIdenticalExecutions) {
  // The same fixed schedule, traced and untraced: identical step counts,
  // identical linearizer verdict, identical object census; only the trace
  // differs (recorded vs empty).
  auto run = [](bool record) {
    Scheduler sched;
    sched.set_recording(record);
    AugmentedSnapshot m(sched, "M", 2, 2);
    sched.spawn(aug_mixed(m, 0), "q1");
    sched.spawn(aug_mixed(m, 1), "q2");
    std::vector<ProcessId> schedule{0, 1, 0, 1, 1, 0, 0, 1, 1, 0};
    for (ProcessId pid : schedule) {
      if (!sched.is_done(pid)) {
        sched.run_step(pid);
      }
    }
    while (!sched.all_done()) {
      auto r = sched.runnable();
      sched.run_step(r.front());
    }
    auto lin = aug::linearize(m.log(), 2);
    return std::tuple{sched.total_steps(), sched.steps_taken(0),
                      sched.steps_taken(1), sched.object_count(),
                      sched.trace().size(), lin.ok()};
  };
  auto [steps_t, q1_t, q2_t, objs_t, trace_t, ok_t] = run(true);
  auto [steps_f, q1_f, q2_f, objs_f, trace_f, ok_f] = run(false);
  EXPECT_EQ(steps_t, steps_f);
  EXPECT_EQ(q1_t, q1_f);
  EXPECT_EQ(q2_t, q2_f);
  EXPECT_EQ(objs_t, objs_f);
  EXPECT_TRUE(ok_t);
  EXPECT_TRUE(ok_f);
  EXPECT_EQ(trace_t, steps_t);  // traced mode records every step
  EXPECT_EQ(trace_f, 0u);       // fast mode records nothing
}

TEST(FastMode, RunnableIntoMatchesRunnable) {
  ScriptWorld world({2, 1, 2}, {});
  std::vector<ProcessId> buf{99, 99};  // stale contents must be cleared
  world.scheduler().runnable_into(buf);
  EXPECT_EQ(buf, world.scheduler().runnable());
  world.scheduler().run_step(0);
  world.scheduler().runnable_into(buf);
  EXPECT_EQ(buf, world.scheduler().runnable());
}

// --- parallel explorer: bit-identical results for any thread count ---

TEST(ParallelExplore, DeterministicAcrossThreadsAndStealing) {
  auto serial = explore_schedules(script_factory({3, 3, 2}));
  EXPECT_EQ(serial.executions, 560u);
  EXPECT_EQ(serial.jobs, 1u);
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    for (bool oversubscribe : {false, true}) {
      ParallelExploreOptions opt;
      opt.threads = threads;
      opt.oversubscribe = oversubscribe;
      opt.serial_probe_executions = 0;
      auto res = parallel_explore_schedules(script_factory({3, 3, 2}), opt);
      expect_same(res, serial,
                  "threads=" + std::to_string(threads) +
                      " oversubscribe=" + std::to_string(oversubscribe));
    }
  }
}

TEST(ParallelExplore, ForcedStealsStayBitIdentical) {
  // Oversubscribed workers on any machine are all hungry at startup, so the
  // seed job's worker starts splitting its stack immediately: every
  // configuration steals for real, and the merged result must not budge.
  auto serial = explore_schedules(script_factory({4, 4, 3}));
  EXPECT_EQ(serial.executions, 11550u);  // 11! / (4!4!3!)
  for (std::size_t threads : {2u, 4u, 8u}) {
    ParallelExploreOptions opt;
    opt.threads = threads;
    opt.oversubscribe = true;
    auto res = parallel_explore_schedules(script_factory({4, 4, 3}), opt);
    expect_same(res, serial, "threads=" + std::to_string(threads));
    EXPECT_GT(res.steals, 0u) << threads;
    EXPECT_GT(res.jobs, 1u) << threads;  // the seed was split at least once
  }
}

TEST(ParallelExplore, SingleThreadIsTheSerialEngineInline) {
  // threads == 1 runs the one worker on the calling thread: nobody is ever
  // hungry, so one job, zero steals, and results bit-identical to
  // explore_schedules - with and without a cap or a planted violation.
  const Schedule planted{0, 1, 1, 0};
  for (std::size_t cap : {3u, 500'000u}) {
    ScheduleExploreOptions base;
    base.max_executions = cap;
    auto factory = script_factory({2, 2}, {planted});
    auto serial = explore_schedules(factory, base);
    ParallelExploreOptions opt;
    opt.base = base;
    opt.threads = 1;
    auto res = parallel_explore_schedules(factory, opt);
    expect_same(res, serial, "cap=" + std::to_string(cap));
    EXPECT_EQ(res.jobs, 1u);
    EXPECT_EQ(res.steals, 0u);
  }
}

TEST(ParallelExplore, LexicographicallySmallestWitness) {
  // Two planted violations; every configuration must report the smaller.
  const Schedule small{0, 1, 1, 0};
  const Schedule large{1, 0, 0, 1};
  auto factory = script_factory({2, 2}, {large, small});
  auto serial = explore_schedules(factory);
  ASSERT_TRUE(serial.violation.has_value());
  EXPECT_EQ(serial.witness, small);
  EXPECT_EQ(serial.executions, 3u);
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ParallelExploreOptions opt;
    opt.threads = threads;
    opt.oversubscribe = true;
    opt.serial_probe_executions = 0;
    auto res = parallel_explore_schedules(factory, opt);
    expect_same(res, serial, "threads=" + std::to_string(threads));
  }
}

TEST(ParallelExplore, CapAccountingMatchesSerial) {
  for (std::size_t cap : {1u, 99u, 559u, 560u, 561u}) {
    ScheduleExploreOptions base;
    base.max_executions = cap;
    auto serial = explore_schedules(script_factory({3, 3, 2}), base);
    for (std::size_t threads : {1u, 2u, 4u}) {
      ParallelExploreOptions opt;
      opt.base = base;
      opt.threads = threads;
      opt.oversubscribe = true;
      opt.serial_probe_executions = 0;
      auto res = parallel_explore_schedules(script_factory({3, 3, 2}), opt);
      expect_same(res, serial,
                  "cap=" + std::to_string(cap) +
                      " threads=" + std::to_string(threads));
    }
  }
}

// --- probe cadence: the locked cap/violation check every N-th execution ---

TEST(ParallelProbe, CadenceKeepsCappedAndViolatingSearchesBitIdentical) {
  // serial_probe_executions = 0 sends every search through the worker pool
  // ({4,4,3} has 11,550 executions).  The cap stops the serial walk
  // mid-tree, so the jobs past it are cut by the cap abort; the planted
  // violation ranks after the 4,200 schedules that start with 0, so the
  // jobs past it are cut by the violation abort.  Neither the cadence nor
  // the thread count may move a result.
  const Schedule planted{1, 0, 2, 0, 1, 2, 0, 1, 2, 0, 1};
  struct Case {
    const char* what;
    std::size_t cap;
    std::vector<Schedule> planted;
  };
  for (const Case& c : {Case{"capped", 5000, {}},
                        Case{"violation", 500'000, {planted}}}) {
    ScheduleExploreOptions base;
    base.max_executions = c.cap;
    auto factory = script_factory({4, 4, 3}, c.planted);
    auto serial = explore_schedules(factory, base);
    if (c.planted.empty()) {
      EXPECT_EQ(serial.executions, 5000u);
      EXPECT_FALSE(serial.exhausted);
    } else {
      ASSERT_TRUE(serial.violation.has_value());
      EXPECT_EQ(serial.witness, planted);
      EXPECT_GT(serial.executions, 4200u);
    }
    for (std::size_t interval : {1u, 16u}) {
      for (std::size_t threads : {2u, 4u, 8u}) {
        ParallelExploreOptions opt;
        opt.base = base;
        opt.base.probe_interval = interval;
        opt.threads = threads;
        opt.oversubscribe = true;
        opt.serial_probe_executions = 0;
        auto res = parallel_explore_schedules(factory, opt);
        expect_same(res, serial,
                    std::string(c.what) +
                        " probe_interval=" + std::to_string(interval) +
                        " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(ParallelProbe, SerialProbeSettlesSmallTreesAndDiscardsTheRest) {
  // {3,3,2} has 560 executions.  The default probe (1,024) walks the whole
  // tree before any thread starts: one job, no steals.  A 100-execution
  // probe is inconclusive and discarded; the pool recounts from scratch
  // and must land on the serial result all the same.
  auto serial = explore_schedules(script_factory({3, 3, 2}));
  ParallelExploreOptions opt;
  opt.threads = 4;
  opt.oversubscribe = true;
  auto settled = parallel_explore_schedules(script_factory({3, 3, 2}), opt);
  expect_same(settled, serial, "default probe");
  EXPECT_EQ(settled.jobs, 1u);
  EXPECT_EQ(settled.steals, 0u);

  opt.serial_probe_executions = 100;
  auto discarded = parallel_explore_schedules(script_factory({3, 3, 2}), opt);
  expect_same(discarded, serial, "100-execution probe");
}

// --- the job table shared by the thread and the distributed engines ---

std::unique_ptr<JobRecord> region(Schedule prefix, Schedule choices) {
  auto rec = std::make_unique<JobRecord>();
  rec->set_region(std::move(prefix), std::move(choices), {}, 0);
  return rec;
}

check::detail::SubtreeResult walked(std::size_t executions,
                                    bool violation = false) {
  check::detail::SubtreeResult r;
  r.executions = executions;
  if (violation) {
    r.violation = "planted";
    r.violation_index = executions;
  }
  return r;
}

TEST(JobTable, ClaimReturnsTheLexEarliestPendingJob) {
  JobTable table(100, /*retries=*/0, /*dedupe=*/false);
  JobRecord* seed = table.add(region({}, {}));
  std::uint64_t budget = 0;
  ASSERT_EQ(table.claim(0, &budget), seed);
  EXPECT_EQ(budget, 100u);
  seed->live.store(7);
  // Worker 0 splits off three regions, out of key order.
  JobRecord* last = table.donate(region({1}, {2}), *seed, 0);
  JobRecord* first = table.donate(region({0}, {1, 2}), *seed, 0);
  JobRecord* middle = table.donate(region({1}, {0}), *seed, 0);
  EXPECT_EQ(first->key, (Schedule{0, 1}));
  EXPECT_EQ(table.pending(), 3u);
  EXPECT_EQ(table.claim(1, &budget), first);
  EXPECT_EQ(budget, 93u);  // the seed's 7 live executions precede it
  EXPECT_EQ(table.claim(0, &budget), middle);  // the donor: not a steal
  EXPECT_EQ(table.claim(1, &budget), last);
  EXPECT_EQ(table.claim(1, &budget), nullptr);
  EXPECT_EQ(table.pending(), 0u);
  EXPECT_EQ(table.running(), 4u);
  for (JobRecord* r : {seed, first, middle, last}) {
    table.complete(*r, walked(1));
  }
  auto res = table.merge({});
  EXPECT_EQ(res.jobs, 4u);
  EXPECT_EQ(res.steals, 2u);
  EXPECT_EQ(res.executions, 4u);
  EXPECT_TRUE(res.exhausted);
}

TEST(JobTable, PreSkipsJobsOnceTheLexEarlierLiveSumReachesTheCap) {
  JobTable table(10, /*retries=*/0, /*dedupe=*/false);
  JobRecord* seed = table.add(region({}, {}));
  std::uint64_t budget = 0;
  ASSERT_EQ(table.claim(0, &budget), seed);
  JobRecord* child = table.donate(region({0}, {1}), *seed, 0);
  seed->live.store(9);
  EXPECT_TRUE(table.readable(*child));
  seed->live.store(10);
  EXPECT_FALSE(table.readable(*child));
  EXPECT_EQ(table.claim(1, &budget), nullptr);
  EXPECT_EQ(child->state, JobRecord::kAborted);
  EXPECT_EQ(table.pending(), 0u);
  EXPECT_EQ(table.running(), 1u);
}

TEST(JobTable, PreSkipsJobsPastALexEarlierViolation) {
  JobTable table(100, /*retries=*/0, /*dedupe=*/false);
  JobRecord* early = table.add(region({0}, {1}));
  JobRecord* late = table.add(region({1}, {0}));
  std::uint64_t budget = 0;
  ASSERT_EQ(table.claim(0, &budget), early);
  table.complete(*early, walked(3, /*violation=*/true));
  EXPECT_FALSE(table.readable(*late));
  JobRecord* before = table.add(region({0}, {0}));  // lex-before the violation
  EXPECT_EQ(table.claim(0, &budget), before);
  EXPECT_EQ(table.claim(0, &budget), nullptr);
  EXPECT_EQ(late->state, JobRecord::kAborted);
}

TEST(JobTable, RetryCancelsDescendantsOutOfTheBoundTheMergeAndJobs) {
  // The seed donates a child, which donates a grandchild; then the seed's
  // attempt fails.  Its re-run walks the whole tree again, so the child
  // (running) and the grandchild (pending) are cancelled: out of the cap
  // bound, the violation key, the merge and the job count.
  JobTable table(100, /*retries=*/1, /*dedupe=*/true);
  JobRecord* seed = table.add(region({}, {}));
  std::uint64_t budget = 0;
  ASSERT_EQ(table.claim(0, &budget), seed);
  JobRecord* child = table.donate(region({0}, {1}), *seed, 0);
  ASSERT_EQ(table.claim(1, &budget), child);
  JobRecord* grandchild = table.donate(region({0, 1}, {2}), *child, 1);
  seed->live.store(3);
  child->live.store(40);
  EXPECT_EQ(table.bound_before({2}), 43u);

  std::vector<JobRecord*> cancelled;
  EXPECT_TRUE(table.retry_or_fail(*seed, "lost", &cancelled));
  EXPECT_EQ(cancelled, (std::vector<JobRecord*>{child, grandchild}));
  EXPECT_TRUE(seed->no_dedupe);  // its old claims must not prune the re-run
  EXPECT_EQ(table.bound_before({2}), 0u);
  EXPECT_FALSE(table.readable(*child));
  EXPECT_EQ(grandchild->state, JobRecord::kAborted);
  EXPECT_EQ(table.pending(), 1u);  // the seed, for its re-run
  // The cancelled walk still finishes, with a violation: dropped.
  table.complete(*child, walked(40, /*violation=*/true));
  EXPECT_EQ(table.running(), 0u);

  ASSERT_EQ(table.claim(0, &budget), seed);
  table.complete(*seed, walked(6));
  auto res = table.merge({});
  EXPECT_EQ(res.jobs, 1u);
  EXPECT_EQ(res.executions, 6u);
  EXPECT_TRUE(res.exhausted);
  EXPECT_FALSE(res.violation);
}

// --- transposition dedupe: verdict parity across thread counts ---

Task<void> tag_script(mem::TypedRegister<Val>& reg, Val me,
                      std::size_t writes) {
  for (std::size_t i = 0; i < writes; ++i) {
    co_await reg.write(me);
  }
}

// Processes stamp their id into one shared register; the verdict reads only
// shared state, so the scheduler digest alone satisfies the soundness
// contract and transpositions merge aggressively (the canonical state is
// just per-process progress plus the last writer).
class LastWriterWorld final : public ExplorableWorld {
 public:
  LastWriterWorld(std::vector<std::size_t> writes, Val banned)
      : reg_(sched_, "R", Val{-1}), banned_(banned) {
    for (ProcessId p = 0; p < writes.size(); ++p) {
      sched_.spawn(tag_script(reg_, Val(p), writes[p]), "w");
    }
  }

  Scheduler& scheduler() override { return sched_; }

  std::optional<std::string> verdict(bool complete) override {
    if (complete && reg_.peek() == banned_) {
      return "banned last writer";
    }
    return std::nullopt;
  }

 private:
  Scheduler sched_;
  mem::TypedRegister<Val> reg_;
  Val banned_;
};

auto last_writer_factory(std::vector<std::size_t> writes, Val banned) {
  return [writes = std::move(writes), banned] {
    return std::make_unique<LastWriterWorld>(writes, banned);
  };
}

TEST(ParallelDedupe, VerdictParityAcrossThreadCounts) {
  // Uncapped searches: the violation-found / violation-free verdict must
  // agree between undeduped serial, deduped serial and deduped parallel at
  // every thread count.  Counts and witnesses may differ by design.
  for (Val banned : {Val{0}, Val{-7}}) {  // planted / absent
    auto factory = last_writer_factory({3, 3, 2}, banned);
    auto plain = explore_schedules(factory);
    ScheduleExploreOptions base;
    base.dedupe_states = true;
    auto serial = explore_schedules(factory, base);
    EXPECT_EQ(serial.violation.has_value(), plain.violation.has_value());
    EXPECT_TRUE(serial.exhausted);
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
      ParallelExploreOptions opt;
      opt.base = base;
      opt.threads = threads;
      opt.oversubscribe = true;
      opt.serial_probe_executions = 0;
      auto res = parallel_explore_schedules(factory, opt);
      const std::string what =
          "banned=" + std::to_string(banned) +
          " threads=" + std::to_string(threads);
      EXPECT_EQ(res.violation.has_value(), plain.violation.has_value())
          << what;
      EXPECT_TRUE(res.exhausted) << what;
      EXPECT_LE(res.executions * 2, plain.executions) << what;  // >= 2x win
      EXPECT_GT(res.states_seen, 0u) << what;
      // Claim-then-walk: the CAS insert claims a state before its subtree
      // is walked, so racing workers prune instead of re-claiming and the
      // parallel explorer never records more distinct states than the
      // serial one on an exhausted violation-free search (each distinct
      // reachable state is claimed exactly once).  With a violation the
      // comparison is meaningless either way: both searches cut early at
      // interleaving-dependent points.
      if (!plain.violation.has_value()) {
        EXPECT_LE(res.states_seen, serial.states_seen) << what;
      }
    }
  }
}

TEST(ParallelDedupe, AuditModeAcrossThreadCounts) {
  ScheduleExploreOptions base;
  base.dedupe_states = true;
  base.dedupe_audit = true;
  for (std::size_t threads : {2u, 4u}) {
    ParallelExploreOptions opt;
    opt.base = base;
    opt.threads = threads;
    opt.oversubscribe = true;
    opt.serial_probe_executions = 0;
    auto res =
        parallel_explore_schedules(last_writer_factory({3, 3, 2}, 0), opt);
    EXPECT_TRUE(res.violation.has_value()) << threads;
    EXPECT_GT(res.subtrees_pruned, 0u) << threads;
  }
}

TEST(ParallelDedupe, AuditModeCleanOnAugmentedSnapshot) {
  // The paper's own object, whose fingerprints fold every published
  // helping view into a memoised digest while the audit text streams it in
  // full: a 128-bit collision at any nesting level would throw
  // StateFingerprintCollision.  Verdict and exhausted flag must match the
  // undeduped run serially and at every thread count; aug-mutant is the
  // violating control.
  for (const char* world : {"aug-bu", "aug-mutant"}) {
    check::CrashWorldSpec spec;
    spec.world = world;
    spec.f = 2;
    spec.m = 2;
    spec.step_budget = 6;
    auto factory = check::make_crash_world_factory(spec);
    ScheduleExploreOptions base;
    base.max_crashes = 1;
    auto plain = explore_schedules(factory, base);
    EXPECT_EQ(plain.violation.has_value(), std::string(world) == "aug-mutant")
        << world;  // the clean object and the firing control
    base.dedupe_states = true;
    base.dedupe_audit = true;
    auto serial = explore_schedules(factory, base);
    EXPECT_EQ(serial.violation.has_value(), plain.violation.has_value())
        << world;
    EXPECT_EQ(serial.exhausted, plain.exhausted) << world;
    EXPECT_GT(serial.states_seen, 0u) << world;
    for (std::size_t threads : {2u, 4u}) {
      ParallelExploreOptions opt;
      opt.base = base;
      opt.threads = threads;
      opt.oversubscribe = true;
      opt.serial_probe_executions = 0;
      auto res = parallel_explore_schedules(factory, opt);
      const std::string what =
          std::string(world) + " threads=" + std::to_string(threads);
      EXPECT_EQ(res.violation.has_value(), plain.violation.has_value())
          << what;
      EXPECT_EQ(res.exhausted, plain.exhausted) << what;
      EXPECT_GT(res.states_seen, 0u) << what;
    }
  }
}

TEST(ParallelDedupe, FingerprintExtraKeepsUniqueStatesBitIdentical) {
  // ScriptWorld folds its order log into the fingerprint, making every
  // state unique: dedupe finds no transpositions and must reproduce the
  // undeduped explorer bit-for-bit - including executions and witness.
  const Schedule planted{0, 1, 1, 0};
  auto factory = script_factory({2, 2}, {planted});
  auto plain = explore_schedules(factory);
  ASSERT_TRUE(plain.violation.has_value());

  ScheduleExploreOptions base;
  base.dedupe_states = true;
  auto serial = explore_schedules(factory, base);
  expect_same(serial, plain, "serial dedupe, unique states");
  EXPECT_EQ(serial.subtrees_pruned, 0u);

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ParallelExploreOptions opt;
    opt.base = base;
    opt.threads = threads;
    opt.oversubscribe = true;
    opt.serial_probe_executions = 0;
    auto res = parallel_explore_schedules(factory, opt);
    expect_same(res, plain, "threads=" + std::to_string(threads));
    EXPECT_EQ(res.subtrees_pruned, 0u) << threads;
  }
}

TEST(ParallelExplore, ViolationExactlyAtCapAcrossThreads) {
  const Schedule planted{0, 1, 1, 0};
  ScheduleExploreOptions base;
  base.max_executions = 3;
  auto factory = script_factory({2, 2}, {planted});
  auto serial = explore_schedules(factory, base);
  ASSERT_TRUE(serial.violation.has_value());
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ParallelExploreOptions opt;
    opt.base = base;
    opt.threads = threads;
    opt.oversubscribe = true;
    opt.serial_probe_executions = 0;
    auto res = parallel_explore_schedules(factory, opt);
    expect_same(res, serial, "threads=" + std::to_string(threads));
  }
}

// --- graceful degradation: failing jobs, retries, wall-clock abort ---

// Wraps ScriptWorld; verdict() throws until the shared countdown hits zero.
class FlakyWorld final : public ExplorableWorld {
 public:
  FlakyWorld(std::vector<std::size_t> writes, std::atomic<int>* throws_left)
      : inner_(std::move(writes), {}), throws_left_(throws_left) {}
  Scheduler& scheduler() override { return inner_.scheduler(); }
  std::optional<std::string> verdict(bool complete) override {
    if (throws_left_->fetch_add(-1) > 0) {
      throw std::runtime_error("injected verdict fault");
    }
    return inner_.verdict(complete);
  }
  void fingerprint_extra(util::StateSink& sink) override {
    inner_.fingerprint_extra(sink);
  }

 private:
  ScriptWorld inner_;
  std::atomic<int>* throws_left_;
};

TEST(ParallelDegrade, PersistentlyThrowingJobYieldsErrorNotDeadlock) {
  // Every verdict throws: each job exhausts its retry budget and is marked
  // failed; the merge must return a partial summary naming the fault
  // instead of deadlocking or propagating the exception.  One thread runs
  // the single worker on the calling thread; two run the pool.
  for (std::size_t threads : {1u, 2u}) {
    std::atomic<int> always(1 << 20);
    ParallelExploreOptions opt;
    opt.threads = threads;
    opt.oversubscribe = true;
    opt.job_retries = 1;
    auto res = parallel_explore_schedules(
        [&] {
          return std::make_unique<FlakyWorld>(std::vector<std::size_t>{2, 2},
                                              &always);
        },
        opt);
    ASSERT_TRUE(res.error.has_value()) << threads;
    EXPECT_NE(res.error->find("injected verdict fault"), std::string::npos)
        << threads;
    EXPECT_NE(res.error->find("2 attempt"), std::string::npos)  // 1 + 1 retry
        << threads;
    EXPECT_FALSE(res.exhausted) << threads;
    EXPECT_FALSE(res.violation) << threads;
  }
}

TEST(ParallelDegrade, TransientFaultIsAbsorbedByRetry) {
  // One injected throw: some job fails once, its retry succeeds, and the
  // final summary is bit-identical to the fault-free serial exploration.
  // The serial probe is off, or it would swallow the throw itself.
  auto serial = explore_schedules(script_factory({2, 2}));
  for (std::size_t threads : {1u, 2u}) {
    std::atomic<int> once(1);
    ParallelExploreOptions opt;
    opt.threads = threads;
    opt.job_retries = 2;
    opt.serial_probe_executions = 0;
    auto res = parallel_explore_schedules(
        [&] {
          return std::make_unique<FlakyWorld>(std::vector<std::size_t>{2, 2},
                                              &once);
        },
        opt);
    expect_same(res, serial,
                "transient fault absorbed, threads=" + std::to_string(threads));
    EXPECT_FALSE(res.error.has_value()) << threads;
    EXPECT_FALSE(res.timed_out) << threads;
    EXPECT_LE(once.load(), 0) << threads;  // the fault was injected
  }
}

Task<void> slow_writes(Scheduler& sched, std::size_t obj, ProcessId /*me*/,
                       std::size_t writes) {
  for (std::size_t i = 0; i < writes; ++i) {
    co_await runtime::StepAwaiter<void>(
        sched,
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(10)); },
        obj, StepKind::kWrite, {});
  }
}

class SlowWorld final : public ExplorableWorld {
 public:
  explicit SlowWorld(std::vector<std::size_t> writes) {
    const std::size_t obj = sched_.register_object("r");
    for (ProcessId p = 0; p < writes.size(); ++p) {
      sched_.spawn(slow_writes(sched_, obj, p, writes[p]), "q");
    }
  }
  Scheduler& scheduler() override { return sched_; }
  std::optional<std::string> verdict(bool) override { return std::nullopt; }

 private:
  Scheduler sched_;
};

TEST(ParallelDegrade, WallClockLimitReturnsPartialSummary) {
  // Steps sleep 10ms and the deadline is 1ms: it passes before the first
  // execution ends, so the walk is cut at once or never starts, and the
  // merge must report a timed-out partial summary rather than block.
  for (std::size_t threads : {1u, 2u}) {
    ParallelExploreOptions opt;
    opt.threads = threads;
    opt.oversubscribe = true;
    opt.time_limit = std::chrono::milliseconds(1);
    auto res = parallel_explore_schedules(
        [] {
          return std::make_unique<SlowWorld>(std::vector<std::size_t>{2, 2});
        },
        opt);
    EXPECT_TRUE(res.timed_out) << threads;
    EXPECT_FALSE(res.exhausted) << threads;
    EXPECT_FALSE(res.violation) << threads;
    EXPECT_FALSE(res.error.has_value()) << threads;
  }
}

TEST(ParallelDegrade, DeadlineMidJobAbortsPromptly) {
  // Here the deadline passes while the jobs are being walked.  Steps sleep
  // 10ms, so one execution of {5,4} (9 steps) takes about 0.1s and the
  // whole tree (126 executions) takes two workers several seconds.  Each
  // job's first abort probe comes about 0.1s in, before the 0.3s deadline.
  // The probe interval lies past the tree size, so the locked cap/violation
  // check runs only at that first probe; the deadline must still be checked
  // after every execution and cut each walk within about one execution.
  for (std::size_t threads : {1u, 2u}) {
    ParallelExploreOptions opt;
    opt.threads = threads;
    opt.oversubscribe = true;
    opt.serial_probe_executions = 0;  // claim the seed job at once
    opt.base.probe_interval = 1'000'000;
    opt.time_limit = std::chrono::milliseconds(300);
    const auto start = std::chrono::steady_clock::now();
    auto res = parallel_explore_schedules(
        [] {
          return std::make_unique<SlowWorld>(std::vector<std::size_t>{5, 4});
        },
        opt);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(res.timed_out) << threads;
    EXPECT_FALSE(res.exhausted) << threads;
    EXPECT_FALSE(res.violation) << threads;
    EXPECT_FALSE(res.error.has_value()) << threads;
    EXPECT_LT(elapsed, std::chrono::seconds(2)) << threads;
  }
}

TEST(ParallelDegrade, OptionValidationAppliesToParallelEntry) {
  ParallelExploreOptions opt;
  opt.base.max_steps = 0;
  EXPECT_THROW(parallel_explore_schedules(script_factory({1, 1}), opt),
               std::invalid_argument);
  ParallelExploreOptions never_probes;
  never_probes.base.probe_interval = 0;
  EXPECT_THROW(parallel_explore_schedules(script_factory({1, 1}), never_probes),
               std::invalid_argument);
}

TEST(ParallelCrash, CrashBranchingMatchesSerial) {
  // Crash-extended trees must stay bit-identical between the serial and the
  // parallel explorer (shared choice generation): two 1-step writers have
  // 2 / 6 / 7 executions at 0 / 1 / 2 allowed crashes.
  for (std::size_t crashes : {0u, 1u, 2u}) {
    ScheduleExploreOptions base;
    base.max_crashes = crashes;
    auto serial = explore_schedules(script_factory({1, 1}), base);
    EXPECT_EQ(serial.executions, crashes == 0 ? 2u : (crashes == 1 ? 6u : 7u))
        << crashes;
    for (std::size_t threads : {1u, 2u, 4u}) {
      ParallelExploreOptions opt;
      opt.base = base;
      opt.threads = threads;
      opt.oversubscribe = true;
      opt.serial_probe_executions = 0;
      auto res = parallel_explore_schedules(script_factory({1, 1}), opt);
      expect_same(res, serial,
                  "crashes=" + std::to_string(crashes) +
                      " threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelCrash, StealsDuringCrashBranchingStayBitIdentical) {
  // A crash-extended tree big enough that oversubscribed workers steal
  // while crash branches are being enumerated: donated choice lists carry
  // crash entries (top bit set), and the key order must still replay the
  // serial result exactly - planted violation included.  The planted order
  // log is only reachable by crashing process 1 after its first write, so
  // the reported witness necessarily contains a crash entry.
  const Schedule planted{1, 0, 0, 0};
  for (auto writes : {std::vector<std::size_t>{3, 3}}) {
    ScheduleExploreOptions base;
    base.max_crashes = 2;
    auto factory = script_factory(writes, {planted});
    auto serial = explore_schedules(factory, base);
    ASSERT_TRUE(serial.violation.has_value());
    EXPECT_TRUE(std::any_of(serial.witness.begin(), serial.witness.end(),
                            runtime::is_crash_entry));
    for (std::size_t threads : {2u, 4u, 8u}) {
      ParallelExploreOptions opt;
      opt.base = base;
      opt.threads = threads;
      opt.oversubscribe = true;
      opt.serial_probe_executions = 0;
      auto res = parallel_explore_schedules(factory, opt);
      expect_same(res, serial, "threads=" + std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace revisim
