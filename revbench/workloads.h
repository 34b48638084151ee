// The benchmark's workloads.  README.md in this directory says why each one
// was chosen and which layer it stresses.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "revbench/layers.h"
#include "src/check/model_check.h"

namespace revbench {

// How a workload's operations are run: on the calling thread, on four
// threads, or on four forked worker processes.
enum class Engine { kSerial, kThreads, kDist };
inline constexpr Engine kEngines[] = {Engine::kSerial, Engine::kThreads,
                                      Engine::kDist};
inline constexpr std::size_t kParallelism = 4;
const char* engine_name(Engine e);

// An exhaustive schedule exploration.  Every config uses the library's
// default options except the reductions the workload is about.
struct ExploreWorkload {
  Factory factory;
  revisim::check::ScheduleExploreOptions options;
  // Executions of the unreduced tree (multinomial for the register worlds).
  std::size_t tree_executions = 0;
  // Executions owed by every engine, bit-identical with an empty witness;
  // nullopt under dedupe, where only the clean verdict is owed.
  std::optional<std::size_t> expected_executions;
};

[[nodiscard]] std::vector<std::string> workload_names();
[[nodiscard]] std::optional<ExploreWorkload> explore_workload(
    const std::string& name);

// Runs one exploration; `traced` wraps the factory in timed_factory.
revisim::check::ScheduleExploreResult explore(const ExploreWorkload& w,
                                              Engine engine, bool traced);
// The workload's correctness contract for one exploration result.
[[nodiscard]] bool explore_correct(
    const ExploreWorkload& w, const revisim::check::ScheduleExploreResult& r);

// --- kset-sim -----------------------------------------------------------

// One simulation of a starved racing k-set protocol (E5's grid).
struct SimCase {
  std::size_t n = 0, k = 0, x = 0, m = 0;
  std::uint64_t adversary_seed = 0;
  bool burst = false;
};

// What one simulation produced.  Plain data: forked runners write it into
// shared memory.  The *_ns fields are filled on traced runs only.
struct SimOutcome {
  bool done = false;  // written by the runner that took this case
  bool terminated = false;
  bool replay_ok = false;
  bool agreement_ok = false;
  std::uint64_t real_steps = 0;
  std::uint64_t revisions = 0;
  std::uint64_t linearized_ops = 0;
  std::uint64_t hidden_steps = 0;
  std::uint64_t construct_ns = 0;
  std::uint64_t run_ns = 0;
  std::uint64_t validate_ns = 0;
  std::uint64_t task_ns = 0;

  // Same simulation result, timings aside.
  [[nodiscard]] bool same_result(const SimOutcome& o) const;
};

[[nodiscard]] std::vector<SimCase> kset_cases(std::uint64_t seed);

// Runs every case; out[i] is case i's outcome.  Throws if a forked runner
// dies.
void run_simulations(const std::vector<SimCase>& cases, Engine engine,
                     bool traced, std::vector<SimOutcome>& out);

}  // namespace revbench
