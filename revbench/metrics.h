// The benchmark's metric catalogue: every metric it can print, with its
// unit.  BENCHMARK.json at the repository root lists the same names; the
// self-test (tests/selftest.py) keeps the two in step.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace revbench {

enum class MetricKind { kEndToEnd, kLayer };

using MetricValues = std::map<std::string, double>;

// Renders the result line: every metric of `kind`, in catalogue order.
// Throws std::logic_error if `values` lacks one of them or is not finite.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricValues& values,
                        MetricKind kind);

// One line per metric: "<e2e|layer> <name> <unit>".
void print_metric_catalogue();

}  // namespace revbench
