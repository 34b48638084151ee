#include "revbench/metrics.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace revbench {

namespace {

struct Metric {
  const char* name;
  const char* unit;
  MetricKind kind;
};

constexpr MetricKind E = MetricKind::kEndToEnd;
constexpr MetricKind L = MetricKind::kLayer;

constexpr Metric kCatalogue[] = {
    {"setup_s", "s", E},
    {"serial_s", "s", E},
    {"threads_s", "s", E},
    {"dist_s", "s", E},
    {"peak_rss_mb", "MB", E},

    {"check.executions", "count", L},
    {"check.world_builds", "count", L},
    {"check.world_build_s", "s", L},
    {"check.verdict_s", "s", L},
    {"check.replay_steps_saved", "count", L},
    {"check.explore_self_s", "s", L},
    {"runtime.steps", "count", L},
    {"runtime.steps_per_execution", "ratio", L},
    {"util.fingerprint_calls", "count", L},
    {"util.fingerprint_s", "s", L},
    {"check.states_seen", "count", L},
    {"check.subtrees_pruned", "count", L},
    {"check.prune_ratio", "ratio", L},
    {"check.por_skipped", "count", L},
    {"check.dependent_wakeups", "count", L},
    {"check.footprint_bytes", "B", L},
    {"check.por_reduction", "ratio", L},
    {"augmented.linearize_calls", "count", L},
    {"augmented.linearize_s", "s", L},
    {"threads.jobs", "count", L},
    {"threads.steals", "count", L},
    {"threads.cpu_s", "s", L},
    {"threads.busy_frac", "ratio", L},
    {"threads.cpu_over_serial", "ratio", L},
    {"threads.world_builds", "count", L},
    {"threads.world_build_s", "s", L},
    {"dist.jobs", "count", L},
    {"dist.steals", "count", L},
    {"dist.coord_cpu_s", "s", L},
    {"dist.worker_cpu_s", "s", L},
    {"dist.busy_frac", "ratio", L},
    {"dist.world_builds", "count", L},
    {"sim.construct_s", "s", L},
    {"sim.run_s", "s", L},
    {"sim.validate_s", "s", L},
    {"tasks.validate_s", "s", L},
    {"sim.real_steps", "count", L},
    {"sim.revisions", "count", L},
    {"sim.linearized_ops", "count", L},
    {"sim.hidden_steps", "count", L},
    {"sim.agreement_violations", "count", L},
    {"sim.replay_failures", "count", L},
    {"trace.overhead_frac.serial", "ratio", L},
    {"trace.overhead_frac.threads", "ratio", L},
    {"trace.overhead_frac.dist", "ratio", L},
    {"failed_frac", "ratio", L},
};

}  // namespace

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricValues& values,
                        MetricKind kind) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : kCatalogue) {
    if (m.kind != kind) {
      continue;
    }
    const auto it = values.find(m.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      throw std::logic_error(std::string("metric not measured: ") + m.name);
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", it->second);
    out += first ? "" : ", ";
    out += std::string("\"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

void print_metric_catalogue() {
  for (const Metric& m : kCatalogue) {
    std::printf("%s %s %s\n", m.kind == E ? "e2e" : "layer", m.name, m.unit);
  }
}

}  // namespace revbench
