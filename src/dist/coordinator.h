// Distributed exploration coordinator.
//
// Mirrors the in-process work-stealing explorer one level up: the unit of
// work is the same prefix-identified job, the hungry hint becomes a
// kStealReq RPC, the cap/abort coupling becomes periodic live-counter
// credit messages, and the final accounting is the identical key-sorted
// merge (src/check/explore_merge.h) - so executions / exhausted / verdict /
// lex-smallest witness stay bit-identical to the serial engine at any
// worker count, with dedupe off.  With dedupe on, each worker process
// prunes against its own StateTable only (src/dist/worker.h); the
// coordinator holds no state table.  The verdict matches the serial
// engine's; executions vary with how jobs land on workers.  states_seen
// is the largest per-worker count - the maximum of the states_seen
// snapshots in the job results - a lower bound on the distinct states
// walked that never exceeds the serial count on exhausted searches.  A
// dedupe_audit collision in any worker ends the run with `error` set and
// exhausted false.
//
// Failure semantics (the full fault x detector x recovery x guarantee
// matrix lives in DESIGN.md):
//   - Liveness: kPing/kPong heartbeats with monotonic deadlines on both
//     sides distinguish a hung peer from a slow one; silence past
//     heartbeat_timeout_ms cuts the connection.  The v2 frame header's
//     sequence number + crc turn dropped, duplicated and corrupted frames
//     into deterministic connection cuts too.
//   - A worker that disconnects mid-job has the job re-queued (up to
//     job_retries times); every region the lost attempt donated is
//     CANCELLED, recursively, because the re-run walks the job's full
//     original region - so requeue preserves bit-exact merge accounting
//     even after donations.  With dedupe_states on, the lost attempt's
//     claims survive in its worker's table, so the re-run (and every
//     region it donates, recursively) executes with dedupe off - it walks
//     every state the lost attempt claimed, so nothing that pruned against
//     those claims is under-explored.
//   - The worker keeps its session: it re-dials with backoff and
//     re-handshakes under its prior session token, and the coordinator's
//     acceptor hands the fresh socket back to the waiting serve thread
//     (reconnect_window_ms bounds the wait; a fork-mode worker whose
//     process has exited is retired at once).  In-flight live-counter
//     credit is zeroed on requeue, never double counted.
//   - A run journal (journal_path) records created jobs and completed
//     walks; after a coordinator crash, resume=true reloads it, reuses
//     completed regions, re-runs incomplete ones and discards their
//     descendants - the resumed merge is bit-identical to an
//     uninterrupted run.
//   - If every worker is permanently lost with work outstanding, the run
//     returns a partial summary naming the loss instead of hanging.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/check/crash_worlds.h"
#include "src/check/model_check.h"
#include "src/dist/fault_channel.h"

namespace revisim::dist {

struct DistExploreOptions {
  check::ScheduleExploreOptions base{};
  std::size_t workers = 2;       // fork-mode worker process count
  std::size_t job_retries = 2;   // re-queues after a lost or throwing job
  std::chrono::milliseconds time_limit{0};  // 0 = unlimited
  std::uint64_t live_interval = 256;  // executions between kLive messages
  // Turn the hungry hint into kStealReq RPCs.  Off, the tree is never
  // split: one worker walks the seed job alone while the rest idle -
  // useful when jobs are tiny relative to wire latency, and for tests
  // that need a donation-free run.
  bool steal_requests = true;

  // --- liveness / recovery ---------------------------------------------
  // Heartbeat cadence: the coordinator pings every idle or busy connection
  // on this interval and both sides declare the peer dead after
  // heartbeat_timeout_ms of silence.  interval 0 disables the liveness
  // layer (a partitioned peer is then only detected by socket errors).
  std::uint32_t heartbeat_interval_ms = 500;
  std::uint32_t heartbeat_timeout_ms = 10'000;
  // How long a serve thread holds a dead worker's session open waiting for
  // it to re-dial and re-handshake (fork mode: via the kept-open listener;
  // cluster mode: the coordinator re-dials the endpoint itself).  0
  // disables reconnect: a lost connection is a lost worker.
  std::uint32_t reconnect_window_ms = 10'000;

  // --- run journal / checkpoint-resume ---------------------------------
  // Nonempty: append a durable run journal here (src/dist/journal.h).
  std::string journal_path;
  // journal_path holds a prior (interrupted) run: load it, reuse finished
  // regions, re-run the rest.  The journal's recorded config must match.
  bool resume = false;
  // Opaque world tag pinned in the journal config (the CLI records its
  // world flags here); resume refuses a journal with a different tag.
  std::string journal_tag;

  // --- deterministic fault injection (tests / CI) ----------------------
  // Outbound fault plans: coordinator_faults perturbs every C->W send
  // (re-seeded per connection), worker_faults is shipped to forked workers
  // (re-seeded per worker) and perturbs their W->C sends.
  FaultPlan coordinator_faults;
  FaultPlan worker_faults;

  // Test instrumentation: the first job shipped to any worker orders that
  // worker to _exit() after this many executions (0 = off), exercising the
  // crash-recovery path deterministically.
  std::uint64_t fault_first_job_after = 0;
  // Test instrumentation: stop the run (as if the coordinator died) after
  // this many job completions (0 = off).  With a journal this leaves
  // exactly the on-disk state a killed coordinator would, for resume
  // tests that cannot rely on kill timing.
  std::uint64_t halt_after_jobs = 0;
};

// Runs one exploration over already-connected worker sockets (ownership
// taken; sockets are closed on return).  `spec` names the registry world
// cluster workers must build; pass nullptr when every worker was forked
// from this process and owns the factory already.  `reconnect_listen_fd`,
// when >= 0, is a listening socket (NOT owned; the caller closes it) on
// which disconnected fork-mode workers re-dial; -1 disables acceptor-based
// reconnect.  `endpoints`, when non-null, records each worker's dialable
// (host, port) so a lost cluster connection is re-dialed by the
// coordinator instead.
check::ScheduleExploreResult coordinate(
    std::vector<int> worker_fds, const DistExploreOptions& options,
    const check::CrashWorldSpec* spec, int reconnect_listen_fd = -1,
    const std::vector<std::pair<std::string, std::uint16_t>>* endpoints =
        nullptr);

// Single-binary localhost mode: forks `options.workers` worker processes
// connected over loopback TCP, coordinates the run, shuts the workers down
// and reaps them (a worker that was not serving at shutdown is killed, not
// waited for).  Fork happens before any coordinator thread starts, so
// the mode is safe under TSan.  The listener stays open for the run so
// lost workers can re-dial.  This is what tests, the benchmark and
// `revisim_cli dist-explore --workers N` use.
check::ScheduleExploreResult dist_explore_schedules(
    const std::function<std::unique_ptr<check::ExplorableWorld>()>& factory,
    const DistExploreOptions& options);

// Cluster mode: connects to `host:port` endpoints running `revisim_cli
// serve` and ships them `spec` to build.  Throws WireError if any endpoint
// is unreachable or rejects the hello.
check::ScheduleExploreResult dist_explore_remote(
    const check::CrashWorldSpec& spec,
    const std::vector<std::string>& endpoints,
    const DistExploreOptions& options);

}  // namespace revisim::dist
