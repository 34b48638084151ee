// Self-test of the benchmark's measuring layer.
//
//   - TimedWorld is transparent: exploring through timed_factory gives
//     bit-identical executions, exhausted flag, verdict, witness and dedupe
//     counters, on a small clean crash world and on the aug-mutant world
//     (a planted progress violation).
//   - The layer times of one serial exploration sum to no more than its
//     wall time, and the counters saw the work.
// Exits non-zero on the first failed check.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "revbench/layers.h"
#include "revbench/workloads.h"
#include "src/check/crash_worlds.h"

namespace {

using namespace revbench;
using revisim::check::ScheduleExploreOptions;
using revisim::check::ScheduleExploreResult;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("[%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  g_failures += ok ? 0 : 1;
}

bool identical(const ScheduleExploreResult& a, const ScheduleExploreResult& b) {
  return a.executions == b.executions && a.exhausted == b.exhausted &&
         a.violation == b.violation && a.witness == b.witness &&
         a.states_seen == b.states_seen &&
         a.subtrees_pruned == b.subtrees_pruned &&
         a.por_skipped == b.por_skipped;
}

void transparency(const std::string& world, const ScheduleExploreOptions& opt,
                  const std::string& label, bool expect_violation) {
  revisim::check::CrashWorldSpec spec;
  spec.world = world;
  const Factory plain = revisim::check::make_crash_world_factory(spec);
  const auto a = revisim::check::explore_schedules(plain, opt);
  const auto b = revisim::check::explore_schedules(timed_factory(plain), opt);
  expect(identical(a, b), world + " " + label +
                              ": identical through TimedWorld (" +
                              std::to_string(a.executions) + " executions)");
  expect(a.violation.has_value() == expect_violation,
         world + " " + label + ": verdict as planted");
}

void layer_sums() {
  const auto w = *explore_workload("augmented-2proc");
  const Counters before = counter_totals();
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = explore(w, Engine::kSerial, true);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const Counters c = counter_totals() - before;
  const double layers =
      static_cast<double>(c.build_ns + c.verdict_ns + c.fingerprint_ns) * 1e-9;
  expect(explore_correct(w, r), "augmented-2proc traced: correct result");
  expect(layers <= wall, "serial layer times " + std::to_string(layers) +
                             " s <= wall " + std::to_string(wall) + " s");
  expect(c.linearize_ns <= c.verdict_ns, "linearize time within verdict time");
  expect(c.verdict_calls == r.executions, "one verdict per execution");
  expect(c.linearize_calls == c.verdict_calls, "one linearization per verdict");
  expect(c.world_builds > 0 && c.steps > 0, "world builds and steps counted");
}

}  // namespace

int main() {
  tracing_init();
  ScheduleExploreOptions crash;
  crash.max_crashes = 1;
  transparency("aug-bu", crash, "crashes<=1", false);
  ScheduleExploreOptions dedupe = crash;
  dedupe.dedupe_states = true;
  dedupe.dedupe_audit = true;
  dedupe.por = true;
  transparency("aug-bu", dedupe, "dedupe+audit+por", false);
  ScheduleExploreOptions mutant;
  mutant.max_crashes = 2;
  transparency("aug-mutant", mutant, "crashes<=2", true);
  layer_sums();
  std::printf("%s\n", g_failures == 0 ? "selftest: PASS" : "selftest: FAIL");
  return g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
