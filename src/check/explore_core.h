// Shared DFS engine behind explore_schedules and the parallel explorer.
//
// explore_job enumerates, in lexicographic (DFS preorder) schedule order,
// every execution whose schedule extends a given prefix - optionally
// restricted to an explicit list of first-branch choices at the prefix node
// (a donated stack suffix).  The serial explorer is the empty-prefix
// instance; the work-stealing parallel explorer runs one instance per job
// and lets busy instances *split their own stack* into new jobs through the
// SplitHooks.  Keeping a single engine is what makes the serial/parallel
// parity guarantee hold by construction.
//
// Cost model.  Coroutine worlds cannot be copied or rewound, so a world's
// lifetime covers exactly one root-to-leaf path and evaluating E executions
// of depth <= D necessarily costs E factory calls and up to E*D steps - the
// replay explorer already meets that lower bound (DESIGN.md finding 7).
// What this engine adds are the constant-factor levers: worlds run with
// trace recording off (Scheduler fast mode), the runnable() buffer and the
// DFS frames are reused instead of reallocated per node, and a WarmPool of
// checkpoint worlds parked at branch nodes turns backtracks into resumes.
// Parking is *not* free - finding 7 makes it exactly cost-neutral in steps
// at best, and stale evictions make it a measured net loss on deep
// low-branching trees - so the pool keeps a realized savings-vs-spend
// ledger and resizes itself to what the workload actually earns (down to
// zero).  The serial explorer and every parallel worker use the same pool.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/check/model_check.h"

namespace revisim::check {
class StateTable;
}  // namespace revisim::check

namespace revisim::check::detail {

// A pool of warm checkpoint worlds.  Every entry has scheduler checkpoint
// recording on (Scheduler::applied_schedule), so entries are portable
// across jobs: acquire() validates an entry against the target schedule
// before resuming it, and take_at() extracts the entry sitting at an exact
// split node for donation to another worker.
//
// The pool keeps a ledger of replay steps actually saved by resumes
// against steps spent building park replacements; when a window closes in
// the red the capacity halves - possibly to zero, since parking is a
// measured net loss on deep low-branching trees (the spend is immediate,
// the saving depends on the entry being resumed before it goes stale).  A
// zeroed pool re-probes with a small capacity after a long run of misses,
// so a workload whose shape changes can earn parking back.
class WarmPool {
 public:
  // Starts at `max_capacity` entries and never grows past it; 0 disables
  // parking for good.
  explicit WarmPool(std::size_t max_capacity);

  // Deepest entry whose applied schedule is a prefix of target[0..len).
  // Returns null on miss; on a hit, *from_len is the entry's depth (the
  // replay steps saved).  Entries that can no longer match the target are
  // evicted in passing.
  std::unique_ptr<ExplorableWorld> acquire(
      const std::vector<runtime::ProcessId>& target, std::size_t len,
      std::size_t* from_len);

  // Entry whose applied schedule is exactly target[0..len), for warm-world
  // donation at a split node.  Null if the pool holds none.
  std::unique_ptr<ExplorableWorld> take_at(
      const std::vector<runtime::ProcessId>& target, std::size_t len);

  // True when a park would currently be accepted.
  [[nodiscard]] bool want_park() const noexcept {
    return entries_.size() < capacity_;
  }
  void park(std::unique_ptr<ExplorableWorld> world);

  // Ledger: steps spent rebuilding a parked world's replacement.  Savings
  // are recorded by acquire().  Each closed window adapts the capacity.
  void note_spent(std::size_t steps);

  [[nodiscard]] std::size_t max_capacity() const noexcept {
    return max_capacity_;
  }

 private:
  void adapt();

  std::vector<std::unique_ptr<ExplorableWorld>> entries_;
  std::size_t capacity_;
  std::size_t max_capacity_;
  std::uint64_t saved_ = 0;
  std::uint64_t spent_ = 0;
  std::uint64_t window_parks_ = 0;
  std::uint64_t misses_ = 0;  // acquire misses while the pool is zeroed
};

struct SubtreeOptions {
  std::size_t max_steps = 64;            // depth bound, prefix included
  std::size_t max_executions = 500'000;  // execution cap (values < 1 act as 1)
  bool record_traces = false;            // leave Scheduler fast mode off?
  std::size_t warm_worlds = 8;           // warm pool upper bound (0 = off)
  // Crash branching: at every node, besides one step per runnable process,
  // the walk also branches on "crash p here" for each runnable p while the
  // schedule holds fewer than `max_crashes` crash entries.  Crash entries
  // occupy schedule slots (they count toward max_steps) and sort after all
  // step entries, so crash-free schedules are enumerated first and the
  // witness stays the lexicographically smallest violating schedule.  0
  // disables crash branching and reproduces the crash-free explorer.
  std::size_t max_crashes = 0;
  // Transposition pruning: consult a visited-state table at every node
  // strictly deeper than the job root and skip subtrees rooted at states
  // already seen.  The insert is claim-then-walk: the fingerprint goes in
  // *before* the subtree is walked, so with a shared table a racing worker
  // observes the claim and prunes instead of re-exploring.  Verdict-
  // preserving by construction (equal states generate identical subtrees),
  // but `executions` and the reported witness may legitimately differ from
  // an undeduped walk - a violation first reached through a pruned
  // transposition is reported through the schedule that visited its state
  // first.  The job root itself is never consulted: it was claimed by
  // whoever arrived at it first (the donor, for stolen jobs; nobody, for
  // the global root), so a root check would make every job prune itself.
  bool dedupe_states = false;
  // Retain full canonical states and fail loudly on a 128-bit collision
  // (only read when this call creates its own table, i.e. `table == null`).
  bool dedupe_audit = false;
  // Visited-state table that outlives the walk: the thread explorer's one
  // shared table, or a distributed worker's table for its session.  Null
  // with dedupe_states set means the walk creates a private table for its
  // own lifetime.
  StateTable* table = nullptr;
  // Adaptive dedupe kill-switch (WarmPool-style spent-vs-saved ledger):
  // fingerprinting every node is pure overhead on workloads whose states
  // are all distinct, so when a window of kDedupeAdaptWindow lookups closes
  // with a prune rate below 1/kDedupeAdaptFactor, the walk stops consulting
  // the table for the rest of the job and reports dedupe_disabled.  Claims
  // already inserted stand (claim-then-walk stays sound: this walk still
  // explores everything it claimed).  Requires dedupe_states.
  bool dedupe_adaptive = false;
  // Sleep-set partial-order reduction.  After the walk explores choice c at
  // a node, c joins the *sleep set* of every later sibling branch and stays
  // asleep down that branch until a step with a conflicting footprint
  // executes (footprint.h defines conflicts; crash entries are dependent
  // with everything, so they never sleep and executing one wakes all).  A
  // choice found asleep at its node is skipped - the schedules it leads to
  // are step-swap equivalent to already-explored ones - and a node whose
  // every enabled choice is asleep backtracks without counting an execution
  // or evaluating a verdict.  The lexicographically least representative of
  // every Mazurkiewicz trace is never pruned, so for trace-invariant
  // verdicts (any predicate of the final state) the verdict AND the
  // lex-smallest witness match the unreduced walk exactly.  Composes with
  // dedupe_states: the sleep set is mixed into the node fingerprint, since
  // the same state under a smaller sleep set roots a strictly larger
  // subtree.
  bool por = false;
  // Live execution counter, published after every counted execution.  The
  // parallel explorer sums these across lexicographically earlier jobs to
  // bound the serial execution count before a job - the cap coupling that
  // lets capped searches abort provably-unreadable work.
  std::atomic<std::uint64_t>* live_executions = nullptr;
};

// A donated stack suffix: all untried choices of the donor's shallowest
// branching frame, packaged as an independent job.  `prefix` is the path to
// the split node; `choices` are its untried schedule entries in DFS order
// (so the donated region is a contiguous lexicographic suffix of the
// donor's region - the invariant the deterministic merge rests on).
// `warm`, when present, is a checkpoint world that has applied exactly
// `prefix` (checkpoint recording on), saving the thief the root replay.
struct Donation {
  std::vector<runtime::ProcessId> prefix;
  std::vector<runtime::ProcessId> choices;
  std::unique_ptr<ExplorableWorld> warm;
  // POR only: the split node's sleep set followed by the donor's already-
  // explored sibling choices (crash entries excluded - they are dependent
  // with everything, so they could never survive into a child sleep set).
  // Pure pid values: a sleeping process's poised operation is untouched by
  // definition, so the thief re-derives each entry's footprint from its own
  // replayed root world, and the donated branches prune exactly as they
  // would have in the donor - the serial/parallel parity guarantee extends
  // to sleep sets by construction.
  std::vector<runtime::ProcessId> sleep;
  // How many leading entries of `sleep` are the split node's *inherited*
  // sleepers (the rest are the donor's explored elder siblings).  The serial
  // walk counts a dependent_wakeup only when a conflicting step drops an
  // inherited sleeper; a dependent elder is silently not added (it only
  // starts counting once it survives into a deeper frame).  The thief must
  // preserve that split or its wakeup count inflates past the serial one.
  std::size_t sleep_inherited = 0;
};

// Work-stealing hooks, polled once per node expansion.  `want` must be
// cheap (an atomic hint load); when it returns true the engine carves off
// the shallowest untried sibling suffix and offers it to `take`, which
// returns true to accept (the donor then skips those choices) or false to
// decline (the donor keeps them; `donation` is handed back untouched except
// that the caller must re-park `donation.warm` if it was populated - the
// engine does this itself).
struct SplitHooks {
  std::function<bool()> want;
  std::function<bool(Donation&)> take;
};

// Per-job context beyond the plain options: an explicit first-branch choice
// list (for donated jobs), an optional warm start world that has applied
// exactly `prefix`, a persistent per-worker pool, and the split hooks.
struct JobContext {
  const std::vector<runtime::ProcessId>* root_choices = nullptr;
  // POR only: Donation::sleep for this job's split node (null = empty).
  const std::vector<runtime::ProcessId>* root_sleep = nullptr;
  // Donation::sleep_inherited for root_sleep (wakeup-counting prefix).
  std::size_t root_sleep_inherited = 0;
  std::unique_ptr<ExplorableWorld> warm;
  // Null: the walk builds its own pool, sized by warm_worlds, that lives
  // as long as the walk does.
  WarmPool* pool = nullptr;
  SplitHooks split;
};

struct SubtreeResult {
  std::size_t executions = 0;
  // False iff the cap (or an abort) truncated the walk while unexplored
  // schedules remained; a walk that ends exactly when the subtree does is
  // fully explored even if it ends at the cap.
  bool fully_explored = true;
  std::optional<std::string> violation;      // first violation in lex order
  std::vector<runtime::ProcessId> witness;   // its full schedule (with prefix)
  std::size_t violation_index = 0;           // 1-based execution count at it
  std::size_t subtrees_pruned = 0;           // transposition hits in this walk
  // Distinct states in the consulted table when the walk ended (a global
  // snapshot if the table was shared; 0 with dedupe off).
  std::size_t states_seen = 0;
  std::size_t donations = 0;                 // jobs split off via SplitHooks
  std::uint64_t replay_steps_saved = 0;      // steps skipped via warm worlds
  // POR: choices skipped because they were asleep (each is a whole subtree
  // of step-swap-equivalent schedules never walked).
  std::size_t por_skipped = 0;
  // POR: sleep entries dropped on descent because the chosen step's
  // footprint conflicted with theirs.
  std::size_t dependent_wakeups = 0;
  // POR: serialized bytes of the footprints captured at node expansions.
  std::uint64_t footprint_bytes = 0;
  // Adaptive dedupe stopped fingerprinting mid-job (prune rate too low).
  bool dedupe_disabled = false;
};

// The one mapping from the public options to the engine's: every field the
// engine shares with ScheduleExploreOptions is copied, and the per-job
// fields (`table`, `live_executions`) stay null.  Callers that run a job
// under a tighter cap overwrite `max_executions` afterwards.
SubtreeOptions subtree_options(const ScheduleExploreOptions& options);

// A single job's walk as a whole-run summary: one job, no steals, the
// engine's counters carried over.  Callers with a wall clock set
// `timed_out` themselves.
ScheduleExploreResult to_explore_result(SubtreeResult&& sr);

// Polled between executions; returning true abandons the walk (the caller
// decides whether the partial result is usable).  Used by the parallel
// explorer to cancel subtrees that can no longer affect the merged outcome
// and to enforce the wall-clock limit.
using AbortProbe = std::function<bool()>;

// Full engine entry point.  `ctx` may be null (plain subtree walk).
SubtreeResult explore_job(
    const std::function<std::unique_ptr<ExplorableWorld>()>& factory,
    const std::vector<runtime::ProcessId>& prefix, const SubtreeOptions& options,
    const AbortProbe& abort = {}, JobContext* ctx = nullptr);

// Appends to `out` the schedule entries available at a node whose runnable
// set is `runnable`: first one plain step entry per runnable process, then -
// when `crashes_used < max_crashes` - one crash entry per runnable process.
// Both the serial engine and the parallel explorer's split/donation path
// build choices through this, so crash-extended exploration keeps the
// serial/parallel parity guarantee by construction.
//
// Canonicalization: adjacent crashes commute (crashing p then q at one step
// boundary reaches the same state as q then p), so when the previous
// schedule entry `prev` is itself a crash entry, only crash targets larger
// than its target are offered.  Every crash *set* at a boundary is still
// reached - exactly once, in increasing-pid order.
void append_node_choices(const std::vector<runtime::ProcessId>& runnable,
                         std::size_t crashes_used, std::size_t max_crashes,
                         std::optional<runtime::ProcessId> prev,
                         std::vector<runtime::ProcessId>& out);

}  // namespace revisim::check::detail
