#include "revbench/layers.h"

#include <pthread.h>
#include <sys/mman.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace revbench {

namespace {

// Explorer threads are created afresh by every parallel run and every dist
// run forks fresh workers, so slots are claimed, never recycled.  A traced
// run of a minute claims a few hundred.
constexpr std::uint32_t kSlots = 1u << 14;

struct alignas(128) Slot {
  Counters c;
};

struct SharedBlock {
  std::atomic<std::uint32_t> claimed{0};
  Slot slots[kSlots];
};

SharedBlock* g_block = nullptr;
thread_local Counters* t_counters = nullptr;

struct Span {
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint32_t parent;
  SpanKind kind;
};

constexpr std::size_t kSpansPerThread = 4096;

struct SpanBuffer {
  std::uint32_t tid = 0;
  std::uint64_t dropped = 0;
  std::vector<Span> spans;
};

struct ConfigSpan {
  std::string label;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<SpanBuffer>> g_buffers;  // guarded by g_buffers_mu
std::vector<ConfigSpan> g_configs;                   // main thread only
std::atomic<std::uint32_t> g_open_config{0};         // 0 = none
thread_local SpanBuffer* t_spans = nullptr;

SpanBuffer& my_spans() {
  if (t_spans == nullptr) {
    auto buf = std::make_unique<SpanBuffer>();
    buf->spans.reserve(kSpansPerThread);
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    buf->tid = static_cast<std::uint32_t>(g_buffers.size());
    t_spans = buf.get();
    g_buffers.push_back(std::move(buf));
  }
  return *t_spans;
}

const char* kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kFactory: return "factory";
    case SpanKind::kVerdict: return "verdict";
    case SpanKind::kFingerprint: return "fingerprint";
    case SpanKind::kLinearize: return "linearize";
    case SpanKind::kSimConstruct: return "sim.construct";
    case SpanKind::kSimRun: return "sim.run";
    case SpanKind::kSimValidate: return "sim.validate";
    case SpanKind::kTaskValidate: return "tasks.validate";
  }
  return "?";
}

// A forked child inherits the forking thread's slot pointer; it must claim
// its own so that it never writes the slot a parent thread still owns.
void reset_after_fork() {
  t_counters = nullptr;
}

// Scheduler::total_steps() of a world is read when the world is destroyed,
// which for warm-pool worlds covers every execution they were reused for.
class TimedWorld final : public revisim::check::ExplorableWorld {
 public:
  explicit TimedWorld(std::unique_ptr<revisim::check::ExplorableWorld> inner)
      : inner_(std::move(inner)) {}
  ~TimedWorld() override {
    my_counters().steps += inner_->scheduler().total_steps();
  }
  TimedWorld(const TimedWorld&) = delete;
  TimedWorld& operator=(const TimedWorld&) = delete;

  revisim::runtime::Scheduler& scheduler() override {
    return inner_->scheduler();
  }
  std::optional<std::string> verdict(bool complete) override {
    Counters& c = my_counters();
    LayerTimer t(SpanKind::kVerdict, c.verdict_calls, c.verdict_ns);
    return inner_->verdict(complete);
  }
  void fingerprint_extra(revisim::util::StateSink& sink) override {
    inner_->fingerprint_extra(sink);
  }
  revisim::util::Fingerprint fingerprint() override {
    Counters& c = my_counters();
    LayerTimer t(SpanKind::kFingerprint, c.fingerprint_calls,
                 c.fingerprint_ns);
    return inner_->fingerprint();
  }
  std::string canonical_state() override {
    Counters& c = my_counters();
    LayerTimer t(SpanKind::kFingerprint, c.fingerprint_calls,
                 c.fingerprint_ns);
    return inner_->canonical_state();
  }

 private:
  std::unique_ptr<revisim::check::ExplorableWorld> inner_;
};

}  // namespace

Counters& Counters::operator+=(const Counters& o) {
  world_builds += o.world_builds;
  build_ns += o.build_ns;
  verdict_calls += o.verdict_calls;
  verdict_ns += o.verdict_ns;
  fingerprint_calls += o.fingerprint_calls;
  fingerprint_ns += o.fingerprint_ns;
  steps += o.steps;
  linearize_calls += o.linearize_calls;
  linearize_ns += o.linearize_ns;
  return *this;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d;
  d.world_builds = world_builds - o.world_builds;
  d.build_ns = build_ns - o.build_ns;
  d.verdict_calls = verdict_calls - o.verdict_calls;
  d.verdict_ns = verdict_ns - o.verdict_ns;
  d.fingerprint_calls = fingerprint_calls - o.fingerprint_calls;
  d.fingerprint_ns = fingerprint_ns - o.fingerprint_ns;
  d.steps = steps - o.steps;
  d.linearize_calls = linearize_calls - o.linearize_calls;
  d.linearize_ns = linearize_ns - o.linearize_ns;
  return d;
}

void tracing_init() {
  if (g_block != nullptr) {
    return;
  }
  void* mem = ::mmap(nullptr, sizeof(SharedBlock), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    throw std::runtime_error("mmap of the shared counter block failed");
  }
  g_block = new (mem) SharedBlock();
  ::pthread_atfork(nullptr, nullptr, reset_after_fork);
}

bool tracing_enabled() noexcept { return g_block != nullptr; }

Counters& my_counters() {
  if (t_counters == nullptr) {
    const std::uint32_t i =
        g_block->claimed.fetch_add(1, std::memory_order_relaxed);
    if (i >= kSlots) {
      throw std::runtime_error("shared counter block exhausted");
    }
    t_counters = &g_block->slots[i].c;
  }
  return *t_counters;
}

Counters counter_totals() {
  Counters sum;
  const std::uint32_t n =
      std::min(g_block->claimed.load(std::memory_order_acquire), kSlots);
  for (std::uint32_t i = 0; i < n; ++i) {
    sum += g_block->slots[i].c;
  }
  return sum;
}

void record_span(SpanKind kind, std::uint64_t start_ns, std::uint64_t end_ns) {
  SpanBuffer& buf = my_spans();
  if (buf.spans.size() >= kSpansPerThread) {
    ++buf.dropped;
    return;
  }
  buf.spans.push_back(
      {start_ns, end_ns, g_open_config.load(std::memory_order_relaxed), kind});
}

std::uint32_t open_config_span(const std::string& label) {
  g_configs.push_back({label, now_ns(), 0});
  const auto id = static_cast<std::uint32_t>(g_configs.size());
  g_open_config.store(id, std::memory_order_relaxed);
  return id;
}

void close_config_span(std::uint32_t id) {
  g_configs[id - 1].end_ns = now_ns();
  g_open_config.store(0, std::memory_order_relaxed);
}

bool write_spans(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  for (std::size_t i = 0; i < g_configs.size(); ++i) {
    const ConfigSpan& c = g_configs[i];
    std::fprintf(out,
                 "{\"span\":\"config\",\"id\":%zu,\"label\":\"%s\","
                 "\"start_ns\":%llu,\"dur_ns\":%llu}\n",
                 i + 1, c.label.c_str(),
                 static_cast<unsigned long long>(c.start_ns),
                 static_cast<unsigned long long>(c.end_ns - c.start_ns));
  }
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buf : g_buffers) {
    for (const Span& s : buf->spans) {
      std::fprintf(out,
                   "{\"span\":\"%s\",\"tid\":%u,\"parent\":%u,"
                   "\"start_ns\":%llu,\"dur_ns\":%llu}\n",
                   kind_name(s.kind), buf->tid, s.parent,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns - s.start_ns));
    }
    if (buf->dropped > 0) {
      std::fprintf(out, "{\"tid\":%u,\"dropped\":%llu}\n", buf->tid,
                   static_cast<unsigned long long>(buf->dropped));
    }
  }
  return std::fclose(out) == 0;
}

Factory timed_factory(Factory inner) {
  return [inner = std::move(inner)]()
             -> std::unique_ptr<revisim::check::ExplorableWorld> {
    Counters& c = my_counters();
    LayerTimer t(SpanKind::kFactory, c.world_builds, c.build_ns);
    return std::make_unique<TimedWorld>(inner());
  };
}

}  // namespace revbench
