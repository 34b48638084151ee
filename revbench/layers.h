// Layer accounting for the traced benchmark run.
//
// The benchmark measures the library from outside, through public calls
// only: it times the world factory, wraps every world in a transparent
// TimedWorld that forwards and times the ExplorableWorld hooks, and times
// the simulation driver's calls itself.  Counts land in per-thread slots of
// one MAP_SHARED block mapped before any fork, so forked dist workers (which
// end with _Exit and never share the parent's heap) still report their
// world builds and verdicts.  Spans go to per-thread in-memory buffers that
// the benchmark writes out once, at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/check/model_check.h"

namespace revbench {

using Factory =
    std::function<std::unique_ptr<revisim::check::ExplorableWorld>()>;

// Counters of one thread (or one forked process).  Only the owning thread
// writes a slot; the main thread sums the slots after every thread and
// worker process of a config has ended.
struct Counters {
  std::uint64_t world_builds = 0;
  std::uint64_t build_ns = 0;
  std::uint64_t verdict_calls = 0;
  std::uint64_t verdict_ns = 0;
  std::uint64_t fingerprint_calls = 0;
  std::uint64_t fingerprint_ns = 0;
  std::uint64_t steps = 0;  // Scheduler::total_steps() at world destruction
  std::uint64_t linearize_calls = 0;
  std::uint64_t linearize_ns = 0;

  Counters& operator+=(const Counters& o);
  Counters operator-(const Counters& o) const;
};

enum class SpanKind : std::uint16_t {
  kFactory,
  kVerdict,
  kFingerprint,
  kLinearize,
  kSimConstruct,
  kSimRun,
  kSimValidate,
  kTaskValidate,
};

// Maps the shared counter block and installs the fork handler.  Call once,
// before the first fork, and only for a traced run: untraced runs never
// touch any of this.
void tracing_init();
[[nodiscard]] bool tracing_enabled() noexcept;

// This thread's slot (claimed on first use).
Counters& my_counters();
// Sum over every slot ever claimed, in this process and its children.
[[nodiscard]] Counters counter_totals();

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Records one span into this thread's buffer (dropped, but counted, once
// the buffer is full).  The parent is the innermost open config span.
void record_span(SpanKind kind, std::uint64_t start_ns, std::uint64_t end_ns);

// Opens a config span on the main thread; spans recorded until it closes
// name it as their parent.  Returns its id.
std::uint32_t open_config_span(const std::string& label);
void close_config_span(std::uint32_t id);

// Writes every span buffer of this process as JSON lines.  Returns false
// if the file cannot be written.
bool write_spans(const std::string& path);

// Times one call into a layer: adds to `calls`/`ns` of this thread's slot
// and records a span.
class LayerTimer {
 public:
  LayerTimer(SpanKind kind, std::uint64_t& calls, std::uint64_t& ns)
      : kind_(kind), calls_(calls), ns_(ns), start_(now_ns()) {}
  ~LayerTimer() {
    const std::uint64_t end = now_ns();
    ++calls_;
    ns_ += end - start_;
    record_span(kind_, start_, end);
  }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

 private:
  SpanKind kind_;
  std::uint64_t& calls_;
  std::uint64_t& ns_;
  std::uint64_t start_;
};

// Wraps `inner` so that every world it builds is a TimedWorld and every
// build is timed.  The wrapped worlds forward every hook unchanged, so an
// exploration through them returns bit-identical results.
[[nodiscard]] Factory timed_factory(Factory inner);

}  // namespace revbench
