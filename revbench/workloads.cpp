#include "revbench/workloads.h"

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "src/augmented/augmented_snapshot.h"
#include "src/augmented/linearizer.h"
#include "src/check/parallel_explore.h"
#include "src/dist/coordinator.h"
#include "src/memory/register.h"
#include "src/protocols/racing_agreement.h"
#include "src/runtime/adversary.h"
#include "src/runtime/scheduler.h"
#include "src/sim/driver.h"
#include "src/sim/replay.h"
#include "src/tasks/task_spec.h"

namespace revbench {

namespace {

using revisim::Val;
using revisim::aug::AugmentedSnapshot;
using revisim::check::ExplorableWorld;
using revisim::runtime::ProcessId;
using revisim::runtime::Scheduler;
using revisim::runtime::Task;

Task<void> write_script(revisim::mem::TypedRegister<int>& reg,
                        std::size_t writes) {
  for (std::size_t i = 0; i < writes; ++i) {
    co_await reg.write(static_cast<int>(i) + 1);
  }
}

// Writers over shared registers: writers[p] = (register index, writes).
// The verdict does nothing, so world construction, step replay and work
// distribution are all the time there is.
class RegisterWorld final : public ExplorableWorld {
 public:
  using Writers = std::vector<std::pair<std::size_t, std::size_t>>;
  RegisterWorld(std::size_t registers, const Writers& writers) {
    for (std::size_t r = 0; r < registers; ++r) {
      regs_.push_back(std::make_unique<revisim::mem::TypedRegister<int>>(
          sched_, std::string("r").append(std::to_string(r)), 0));
    }
    for (const auto& [reg, writes] : writers) {
      sched_.spawn(write_script(*regs_[reg], writes), "w");
    }
  }
  Scheduler& scheduler() override { return sched_; }
  std::optional<std::string> verdict(bool) override { return std::nullopt; }

 private:
  Scheduler sched_;
  std::vector<std::unique_ptr<revisim::mem::TypedRegister<int>>> regs_;
};

// E3's seeded mixed Scan / Block-Update script.
Task<void> mixed(AugmentedSnapshot& m, ProcessId me, std::size_t rounds,
                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < rounds; ++i) {
    if (rng() % 2 == 0) {
      co_await m.Scan(me);
    } else {
      std::vector<std::size_t> comps;
      std::vector<Val> vals;
      const std::size_t r = 1 + rng() % m.components();
      for (std::size_t j = 0; j < m.components() && comps.size() < r; ++j) {
        if (rng() % 2 == 0 || m.components() - j == r - comps.size()) {
          comps.push_back(j);
          vals.push_back(static_cast<Val>(rng() % 1000));
        }
      }
      co_await m.BlockUpdate(me, comps, vals);
    }
  }
}

// The paper's object: a 2-component augmented snapshot, every leaf checked
// by the §3.3 linearizer.
class AugmentedWorld final : public ExplorableWorld {
 public:
  AugmentedWorld() : m_(sched_, "M", 2, 2) {
    sched_.spawn(mixed(m_, 0, 4, 5), "q1");
    sched_.spawn(mixed(m_, 1, 1, 9), "q2");
  }
  Scheduler& scheduler() override { return sched_; }
  std::optional<std::string> verdict(bool) override {
    if (!tracing_enabled()) {
      return check();
    }
    Counters& c = my_counters();
    LayerTimer t(SpanKind::kLinearize, c.linearize_calls, c.linearize_ns);
    return check();
  }

 private:
  std::optional<std::string> check() const {
    auto lin = revisim::aug::linearize(m_.log(), 2);
    if (!lin.ok()) {
      return lin.violations.front();
    }
    return std::nullopt;
  }

  Scheduler sched_;
  AugmentedSnapshot m_;
};

constexpr std::size_t kSimsPerRow = 400;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

SimOutcome simulate(const SimCase& c, bool traced) {
  using revisim::sim::SimulationDriver;
  SimOutcome out;
  revisim::proto::RacingAgreement protocol(c.n, c.m);
  revisim::tasks::KSetAgreement task(c.k);
  Scheduler sched;
  std::vector<Val> inputs;
  for (std::size_t i = 0; i < c.k + 1; ++i) {
    inputs.push_back(static_cast<Val>(10 * (i + 1)));
  }
  SimulationDriver::Options opt;
  opt.d = c.x;
  opt.n = c.n;
  std::unique_ptr<revisim::runtime::Adversary> adv;
  if (c.burst) {
    adv = std::make_unique<revisim::runtime::BurstAdversary>(c.adversary_seed,
                                                             10);
  } else {
    adv = std::make_unique<revisim::runtime::RandomAdversary>(c.adversary_seed);
  }
  std::uint64_t t0 = traced ? now_ns() : 0;
  auto stamp = [&](SpanKind kind, std::uint64_t& ns) {
    if (traced) {
      const std::uint64_t t1 = now_ns();
      ns += t1 - t0;
      record_span(kind, t0, t1);
      t0 = t1;
    }
  };
  SimulationDriver driver(sched, protocol, inputs, opt);
  stamp(SpanKind::kSimConstruct, out.construct_ns);
  out.terminated = driver.run(*adv, 20'000'000);
  stamp(SpanKind::kSimRun, out.run_ns);
  out.real_steps = sched.total_steps();
  if (out.terminated) {
    const auto report = revisim::sim::validate_simulation(driver);
    stamp(SpanKind::kSimValidate, out.validate_ns);
    out.replay_ok = report.ok();
    out.linearized_ops = report.linearized_ops;
    out.hidden_steps = report.hidden_steps_inserted;
    out.agreement_ok = task.validate(driver.inputs(), driver.outputs()).ok;
    stamp(SpanKind::kTaskValidate, out.task_ns);
    out.revisions = driver.all_revisions().size();
  }
  out.done = true;
  return out;
}

// Anonymous shared memory for the forked simulation runners: the next
// unclaimed case, then one outcome per case.
struct SharedRun {
  std::atomic<std::size_t> next{0};
};
constexpr std::size_t kOutcomesOffset =
    (sizeof(SharedRun) + alignof(SimOutcome) - 1) / alignof(SimOutcome) *
    alignof(SimOutcome);

}  // namespace

const char* engine_name(Engine e) {
  switch (e) {
    case Engine::kSerial: return "serial";
    case Engine::kThreads: return "threads";
    case Engine::kDist: return "dist";
  }
  return "?";
}

std::vector<std::string> workload_names() {
  return {"register-554", "register-pairs", "augmented-2proc",
          "augmented-2proc-dedupe", "kset-sim"};
}

std::optional<ExploreWorkload> explore_workload(const std::string& name) {
  ExploreWorkload w;
  if (name == "register-554") {
    // E13's hot-path instance: 14! / (5! 5! 4!) leaves.
    w.factory = [] {
      return std::make_unique<RegisterWorld>(
          3, RegisterWorld::Writers{{0, 5}, {1, 5}, {2, 4}});
    };
    w.tree_executions = 252'252;
    w.expected_executions = 252'252;
  } else if (name == "register-pairs") {
    // 14! / (4! 4! 3! 3!) unreduced leaves; only POR is affordable.
    w.factory = [] {
      return std::make_unique<RegisterWorld>(
          2, RegisterWorld::Writers{{0, 4}, {0, 4}, {1, 3}, {1, 3}});
    };
    w.options.por = true;
    w.tree_executions = 4'204'200;
    w.expected_executions = 119'448;
  } else if (name == "augmented-2proc" || name == "augmented-2proc-dedupe") {
    w.factory = [] { return std::make_unique<AugmentedWorld>(); };
    w.tree_executions = 31'748;
    w.expected_executions = 31'748;
    if (name == "augmented-2proc-dedupe") {
      w.options.dedupe_states = true;  // every state is distinct here
      w.expected_executions.reset();
    }
  } else {
    return std::nullopt;
  }
  return w;
}

revisim::check::ScheduleExploreResult explore(const ExploreWorkload& w,
                                              Engine engine, bool traced) {
  const Factory factory = traced ? timed_factory(w.factory) : w.factory;
  switch (engine) {
    case Engine::kSerial:
      return revisim::check::explore_schedules(factory, w.options);
    case Engine::kThreads: {
      revisim::check::ParallelExploreOptions opt;
      opt.base = w.options;
      opt.threads = kParallelism;
      return revisim::check::parallel_explore_schedules(factory, opt);
    }
    case Engine::kDist: {
      revisim::dist::DistExploreOptions opt;
      opt.base = w.options;
      opt.workers = kParallelism;
      return revisim::dist::dist_explore_schedules(factory, opt);
    }
  }
  throw std::logic_error("unknown engine");
}

bool explore_correct(const ExploreWorkload& w,
                     const revisim::check::ScheduleExploreResult& r) {
  if (r.error || r.timed_out || !r.exhausted || r.violation ||
      !r.witness.empty()) {
    return false;
  }
  return !w.expected_executions || r.executions == *w.expected_executions;
}

bool SimOutcome::same_result(const SimOutcome& o) const {
  return done == o.done && terminated == o.terminated &&
         replay_ok == o.replay_ok && agreement_ok == o.agreement_ok &&
         real_steps == o.real_steps && revisions == o.revisions &&
         linearized_ops == o.linearized_ops && hidden_steps == o.hidden_steps;
}

std::vector<SimCase> kset_cases(std::uint64_t seed) {
  // E5's grid: m at the feasibility edge (f - x) m + x <= n, f = k + 1.
  struct Row {
    std::size_t n, k, x, m;
  };
  static constexpr Row kGrid[] = {
      {4, 1, 0, 2}, {6, 1, 0, 3}, {8, 1, 0, 4}, {5, 1, 1, 4},
      {7, 1, 1, 6}, {6, 2, 0, 2}, {9, 2, 0, 3}, {7, 2, 1, 3},
      {8, 2, 2, 6}, {8, 3, 1, 2}, {9, 3, 2, 3},
  };
  std::vector<SimCase> cases;
  std::uint64_t state = splitmix64(seed);
  for (const Row& row : kGrid) {
    for (std::size_t i = 0; i < kSimsPerRow; ++i) {
      state = splitmix64(state);
      // Alternate uniform-random and bursty schedules, as E5 does: racing
      // protocols betray themselves mostly under covering-style bursts.
      cases.push_back({row.n, row.k, row.x, row.m, state, i % 2 == 1});
    }
  }
  return cases;
}

void run_simulations(const std::vector<SimCase>& cases, Engine engine,
                     bool traced, std::vector<SimOutcome>& out) {
  out.assign(cases.size(), SimOutcome{});
  switch (engine) {
    case Engine::kSerial:
      for (std::size_t i = 0; i < cases.size(); ++i) {
        out[i] = simulate(cases[i], traced);
      }
      return;
    case Engine::kThreads: {
      std::atomic<std::size_t> next{0};
      std::vector<std::thread> pool;
      for (std::size_t t = 0; t < kParallelism; ++t) {
        pool.emplace_back([&] {
          for (std::size_t i = next++; i < cases.size(); i = next++) {
            out[i] = simulate(cases[i], traced);
          }
        });
      }
      for (std::thread& th : pool) {
        th.join();
      }
      return;
    }
    case Engine::kDist: {
      const std::size_t bytes =
          kOutcomesOffset + cases.size() * sizeof(SimOutcome);
      void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_SHARED | MAP_ANONYMOUS, -1, 0);
      if (mem == MAP_FAILED) {
        throw std::runtime_error("mmap of the simulation results failed");
      }
      auto* shared = new (mem) SharedRun();
      auto* outcomes = new (static_cast<char*>(mem) + kOutcomesOffset)
          SimOutcome[cases.size()];
      std::vector<pid_t> pids;
      for (std::size_t w = 0; w < kParallelism; ++w) {
        const pid_t pid = ::fork();
        if (pid == 0) {
          for (std::size_t i = shared->next++; i < cases.size();
               i = shared->next++) {
            outcomes[i] = simulate(cases[i], traced);
          }
          std::_Exit(0);
        }
        if (pid > 0) {
          pids.push_back(pid);
        }
      }
      bool clean = pids.size() == kParallelism;
      for (pid_t pid : pids) {
        int status = 0;
        clean = ::waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                WEXITSTATUS(status) == 0 && clean;
      }
      for (std::size_t i = 0; i < cases.size(); ++i) {
        out[i] = outcomes[i];
      }
      ::munmap(mem, bytes);
      if (!clean) {
        throw std::runtime_error("a forked simulation runner failed");
      }
      return;
    }
  }
}

}  // namespace revbench
