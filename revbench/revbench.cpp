// revbench - measures one workload for a fixed time and prints its metrics.
//
//   revbench --workload NAME --seed N --seconds S --trace 0|1
//            [--rev REV] [--trace-out FILE]
//   revbench --list-metrics
//
// A run sets the workload up several times in forked children (setup_s is
// their median), warms up once, then runs the workload's serial, threads and
// dist configs round-robin for S seconds and reports each config's fastest
// sample.  Every operation (one exploration or one simulation) is checked;
// the last stdout line is {"correct", "attempted", "failed", "metrics"}.
// --trace 0 prints the end-to-end metrics; --trace 1 interleaves traced
// samples and prints the per-layer metrics, including the tracing overhead.
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "revbench/layers.h"
#include "revbench/metrics.h"
#include "revbench/workloads.h"

#ifndef REVBENCH_BUILD_TYPE
#define REVBENCH_BUILD_TYPE "unknown"
#endif

namespace revbench {
namespace {

constexpr int kSetupReps = 3;
constexpr int kMinRounds = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string rev = "unknown";
  std::string trace_out;
  bool list_metrics = false;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Tally& operator+=(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    return *this;
  }
};

double cpu_seconds(int who) {
  rusage u{};
  ::getrusage(who, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// One timed run of one config.
struct Sample {
  double wall_s = 0;
  double self_cpu_s = 0;
  double child_cpu_s = 0;
  revisim::check::ScheduleExploreResult result;  // explorer workloads
  Counters layers;                               // traced samples only
  SimOutcome sims;  // kset-sim: sums over the batch (flags unused)
  std::uint64_t agreement_violations = 0;
  std::uint64_t replay_failures = 0;
};

// Runs a workload's configs and checks every operation.
class Runner {
 public:
  virtual ~Runner() = default;
  virtual Sample run(Engine engine, bool traced, Tally& tally) = 0;
};

class ExploreRunner final : public Runner {
 public:
  explicit ExploreRunner(ExploreWorkload w) : w_(std::move(w)) {}
  Sample run(Engine engine, bool traced, Tally& tally) override {
    Sample s;
    ++tally.attempted;
    try {
      s.result = explore(w_, engine, traced);
      if (!explore_correct(w_, s.result)) {
        ++tally.failed;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "revbench: %s exploration threw: %s\n",
                   engine_name(engine), e.what());
      ++tally.failed;
    }
    return s;
  }
  const ExploreWorkload& workload() const { return w_; }

 private:
  ExploreWorkload w_;
};

class SimRunner final : public Runner {
 public:
  explicit SimRunner(std::uint64_t seed) : cases_(kset_cases(seed)) {}
  Sample run(Engine engine, bool traced, Tally& tally) override {
    Sample s;
    tally.attempted += cases_.size();
    std::vector<SimOutcome> out;
    try {
      run_simulations(cases_, engine, traced, out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "revbench: %s simulations: %s\n",
                   engine_name(engine), e.what());
    }
    out.resize(cases_.size());
    // The first batch is the reference: every later batch of the same seed,
    // on any engine, must reproduce it simulation for simulation.
    if (reference_.empty()) {
      reference_ = out;
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      const SimOutcome& o = out[i];
      if (!o.done || !o.terminated || !o.replay_ok ||
          !o.same_result(reference_[i])) {
        ++tally.failed;
      }
      s.sims.real_steps += o.real_steps;
      s.sims.revisions += o.revisions;
      s.sims.linearized_ops += o.linearized_ops;
      s.sims.hidden_steps += o.hidden_steps;
      s.sims.construct_ns += o.construct_ns;
      s.sims.run_ns += o.run_ns;
      s.sims.validate_ns += o.validate_ns;
      s.sims.task_ns += o.task_ns;
      s.agreement_violations += o.terminated && !o.agreement_ok;
      s.replay_failures += o.terminated && !o.replay_ok;
    }
    return s;
  }

 private:
  std::vector<SimCase> cases_;
  std::vector<SimOutcome> reference_;
};

std::unique_ptr<Runner> make_runner(const std::string& workload,
                                    std::uint64_t seed) {
  if (workload == "kset-sim") {
    return std::make_unique<SimRunner>(seed);
  }
  auto w = explore_workload(workload);
  if (!w) {
    std::string known;
    for (const std::string& n : workload_names()) {
      known += " " + n;
    }
    throw std::invalid_argument("unknown workload " + workload + "; known:" +
                                known);
  }
  return std::make_unique<ExploreRunner>(std::move(*w));
}

Sample timed_run(Runner& runner, Engine engine, bool traced, Tally& tally) {
  std::uint32_t span = 0;
  Counters before;
  if (traced) {
    before = counter_totals();
    span = open_config_span(engine_name(engine));
  }
  const double self0 = cpu_seconds(RUSAGE_SELF);
  const double child0 = cpu_seconds(RUSAGE_CHILDREN);
  const auto t0 = std::chrono::steady_clock::now();
  Sample s = runner.run(engine, traced, tally);
  s.wall_s = seconds_since(t0);
  s.self_cpu_s = cpu_seconds(RUSAGE_SELF) - self0;
  s.child_cpu_s = cpu_seconds(RUSAGE_CHILDREN) - child0;
  if (traced) {
    close_config_span(span);
    s.layers = counter_totals() - before;
  }
  return s;
}

// Builds the workload's inputs and runs every config once, cold, in a
// forked child; returns the wall time from fork to reaping.
double cold_setup(const Args& args, Tally& tally) {
  void* mem = ::mmap(nullptr, sizeof(Tally), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    throw std::runtime_error("mmap of the setup tally failed");
  }
  auto* shared = new (mem) Tally();
  const auto t0 = std::chrono::steady_clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::munmap(mem, sizeof(Tally));
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    int code = 0;
    try {
      auto runner = make_runner(args.workload, args.seed);
      for (Engine e : kEngines) {
        runner->run(e, false, *shared);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "revbench: setup failed: %s\n", e.what());
      code = 1;
    }
    std::fflush(stderr);
    std::_Exit(code);
  }
  int status = 0;
  const bool reaped = ::waitpid(pid, &status, 0) == pid;
  const double wall = seconds_since(t0);
  tally += *shared;
  if (!reaped || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    ++tally.attempted;
    ++tally.failed;
  }
  ::munmap(mem, sizeof(Tally));
  return wall;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename Fn>
double median_of(const std::vector<Sample>& samples, Fn&& fn) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const Sample& s : samples) {
    v.push_back(static_cast<double>(fn(s)));
  }
  return median(v);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

constexpr double kNs = 1e-9;

using Result = revisim::check::ScheduleExploreResult;

// Medians over samples of one field of the exploration result, the layer
// counters or the simulation sums (times `scale`).
template <typename T>
double result_median(const std::vector<Sample>& v, T Result::*field) {
  return median_of(v, [&](const Sample& s) { return s.result.*field; });
}

double layer_median(const std::vector<Sample>& v,
                    std::uint64_t Counters::*field, double scale = 1) {
  return median_of(v, [&](const Sample& s) {
    return static_cast<double>(s.layers.*field) * scale;
  });
}

double sim_median(const std::vector<Sample>& v,
                  std::uint64_t SimOutcome::*field, double scale = 1) {
  return median_of(v, [&](const Sample& s) {
    return static_cast<double>(s.sims.*field) * scale;
  });
}

void layer_metrics(const std::map<Engine, std::vector<Sample>>& traced,
                   const std::map<Engine, std::vector<Sample>>& plain,
                   const ExploreWorkload* w, MetricValues& m) {
  const auto& serial = traced.at(Engine::kSerial);
  const auto& threads = traced.at(Engine::kThreads);
  const auto& dist = traced.at(Engine::kDist);

  const double execs = result_median(serial, &Result::executions);
  m["check.executions"] = execs;
  m["check.world_builds"] = layer_median(serial, &Counters::world_builds);
  m["check.world_build_s"] = layer_median(serial, &Counters::build_ns, kNs);
  m["check.verdict_s"] = layer_median(serial, &Counters::verdict_ns, kNs);
  m["check.replay_steps_saved"] =
      result_median(serial, &Result::replay_steps_saved);
  m["check.explore_self_s"] =
      w == nullptr ? 0 : median_of(serial, [](const Sample& s) {
        return s.wall_s - (s.layers.build_ns + s.layers.verdict_ns +
                           s.layers.fingerprint_ns) *
                              kNs;
      });
  const double steps = layer_median(serial, &Counters::steps);
  m["runtime.steps"] = steps;
  m["runtime.steps_per_execution"] = ratio(steps, execs);
  const double fp_calls = layer_median(serial, &Counters::fingerprint_calls);
  m["util.fingerprint_calls"] = fp_calls;
  m["util.fingerprint_s"] =
      layer_median(serial, &Counters::fingerprint_ns, kNs);
  m["check.states_seen"] = result_median(serial, &Result::states_seen);
  const double pruned = result_median(serial, &Result::subtrees_pruned);
  m["check.subtrees_pruned"] = pruned;
  m["check.prune_ratio"] = ratio(pruned, fp_calls);
  m["check.por_skipped"] = result_median(serial, &Result::por_skipped);
  m["check.dependent_wakeups"] =
      result_median(serial, &Result::dependent_wakeups);
  m["check.footprint_bytes"] = result_median(serial, &Result::footprint_bytes);
  m["check.por_reduction"] =
      w != nullptr ? ratio(static_cast<double>(w->tree_executions), execs) : 0;
  m["augmented.linearize_calls"] =
      layer_median(serial, &Counters::linearize_calls);
  m["augmented.linearize_s"] =
      layer_median(serial, &Counters::linearize_ns, kNs);

  const double serial_cpu =
      median_of(serial, [](const Sample& s) { return s.self_cpu_s; });
  const double threads_cpu =
      median_of(threads, [](const Sample& s) { return s.self_cpu_s; });
  m["threads.jobs"] = result_median(threads, &Result::jobs);
  m["threads.steals"] = result_median(threads, &Result::steals);
  m["threads.cpu_s"] = threads_cpu;
  m["threads.busy_frac"] = median_of(threads, [](const Sample& s) {
    return ratio(s.self_cpu_s, s.wall_s * kParallelism);
  });
  m["threads.cpu_over_serial"] = ratio(threads_cpu, serial_cpu);
  m["threads.world_builds"] = layer_median(threads, &Counters::world_builds);
  m["threads.world_build_s"] =
      layer_median(threads, &Counters::build_ns, kNs);

  m["dist.jobs"] = result_median(dist, &Result::jobs);
  m["dist.steals"] = result_median(dist, &Result::steals);
  m["dist.coord_cpu_s"] =
      median_of(dist, [](const Sample& s) { return s.self_cpu_s; });
  m["dist.worker_cpu_s"] =
      median_of(dist, [](const Sample& s) { return s.child_cpu_s; });
  m["dist.busy_frac"] = median_of(dist, [](const Sample& s) {
    return ratio(s.child_cpu_s, s.wall_s * kParallelism);
  });
  m["dist.world_builds"] = layer_median(dist, &Counters::world_builds);

  m["sim.construct_s"] = sim_median(serial, &SimOutcome::construct_ns, kNs);
  m["sim.run_s"] = sim_median(serial, &SimOutcome::run_ns, kNs);
  m["sim.validate_s"] = sim_median(serial, &SimOutcome::validate_ns, kNs);
  m["tasks.validate_s"] = sim_median(serial, &SimOutcome::task_ns, kNs);
  m["sim.real_steps"] = sim_median(serial, &SimOutcome::real_steps);
  m["sim.revisions"] = sim_median(serial, &SimOutcome::revisions);
  m["sim.linearized_ops"] = sim_median(serial, &SimOutcome::linearized_ops);
  m["sim.hidden_steps"] = sim_median(serial, &SimOutcome::hidden_steps);
  m["sim.agreement_violations"] = median_of(
      serial, [](const Sample& s) { return s.agreement_violations; });
  m["sim.replay_failures"] =
      median_of(serial, [](const Sample& s) { return s.replay_failures; });

  auto wall = [](const Sample& s) { return s.wall_s; };
  for (Engine e : kEngines) {
    const double on = median_of(traced.at(e), wall);
    const double off = median_of(plain.at(e), wall);
    m[std::string("trace.overhead_frac.") + engine_name(e)] =
        ratio(on, off) - 1;
  }
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      a.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--rev") {
      a.rev = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!a.list_metrics && (a.workload.empty() || a.seconds <= 0)) {
    throw std::invalid_argument("--workload and --seconds > 0 are required");
  }
  return a;
}

int run(const Args& args) {
  auto runner = make_runner(args.workload, args.seed);  // rejects bad names
  if (args.trace) {
    tracing_init();  // before the first fork
  }
  Tally tally;
  std::vector<double> setup;
  for (int i = 0; i < kSetupReps; ++i) {
    setup.push_back(cold_setup(args, tally));
  }
  for (Engine e : kEngines) {  // warm-up: checked, not timed
    runner->run(e, false, tally);
  }

  std::map<Engine, std::vector<Sample>> plain;
  std::map<Engine, std::vector<Sample>> traced;
  const auto start = std::chrono::steady_clock::now();
  int rounds = 0;
  while (rounds < kMinRounds || seconds_since(start) < args.seconds) {
    // Rotate the config order so no config always runs first or last.
    for (std::size_t k = 0; k < std::size(kEngines); ++k) {
      const Engine e = kEngines[(k + rounds) % std::size(kEngines)];
      const bool traced_first = args.trace && rounds % 2 == 1;
      if (traced_first) {
        traced[e].push_back(timed_run(*runner, e, true, tally));
      }
      plain[e].push_back(timed_run(*runner, e, false, tally));
      if (args.trace && !traced_first) {
        traced[e].push_back(timed_run(*runner, e, true, tally));
      }
    }
    ++rounds;
  }

  MetricValues m;
  if (args.trace) {
    const auto* er = dynamic_cast<const ExploreRunner*>(runner.get());
    layer_metrics(traced, plain, er != nullptr ? &er->workload() : nullptr, m);
    m["failed_frac"] = ratio(static_cast<double>(tally.failed),
                             static_cast<double>(tally.attempted));
  } else {
    m["setup_s"] = median(setup);
    // Interference from other tenants only ever slows a sample down, and
    // it comes in bursts of seconds, so a config's fastest sample is its
    // steadiest estimate of the code's own cost.
    for (Engine e : kEngines) {
      double best = plain[e].front().wall_s;
      for (const Sample& s : plain[e]) {
        best = std::min(best, s.wall_s);
      }
      m[std::string(engine_name(e)) + "_s"] = best;
    }
    rusage u{};
    ::getrusage(RUSAGE_SELF, &u);
    m["peak_rss_mb"] = static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB
  }

  std::printf(
      "# revbench {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"nproc\":%u,\"build_type\":\"%s\",\"rev\":\"%s\","
      "\"rounds\":%d,\"setup_reps\":%d}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      REVBENCH_BUILD_TYPE, args.rev.c_str(), rounds, kSetupReps);
  if (args.trace && !args.trace_out.empty() && !write_spans(args.trace_out)) {
    std::fprintf(stderr, "revbench: cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  std::printf("%s\n",
              result_json(tally.failed == 0, tally.attempted, tally.failed, m,
                          args.trace ? MetricKind::kLayer
                                     : MetricKind::kEndToEnd)
                  .c_str());
  return 0;
}

}  // namespace
}  // namespace revbench

int main(int argc, char** argv) {
  try {
    const revbench::Args args = revbench::parse(argc, argv);
    if (args.list_metrics) {
      revbench::print_metric_catalogue();
      return 0;
    }
    return revbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "revbench: %s\n", e.what());
    return 2;
  }
}
