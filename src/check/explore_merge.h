// Deterministic job scheduling and key-sorted merge, shared by the
// in-process work-stealing explorer (src/check/parallel_explore.cpp) and the
// distributed coordinator (src/dist/coordinator.cpp).  Both reduce a run to
// prefix-identified jobs whose regions partition the schedule tree into
// contiguous lexicographic intervals.  The JobTable below owns the policy
// both engines share - which job runs next, when a job's result can no
// longer be read, how a finished or failed walk is recorded - and the merge
// sorts the job records by region key and replays the serial explorer's
// accounting over them in order, so executions / exhausted / violation /
// lex-smallest witness come out bit-identical to the serial engine no
// matter how the regions were scheduled, stolen or shipped.  Keeping one
// implementation is what makes the in-process and distributed explorers
// agree by construction.
//
// Counter aggregation contract (the merged ScheduleExploreResult):
//
//   executions, exhausted, violation, witness
//     Serial replay accounting: walk the sorted records accumulating
//     executions, return at the first violation whose serial index fits
//     under the cap, truncate at the cap.  Bit-identical to the serial
//     engine (with dedupe off); independent of job decomposition.
//
//   replay_steps_saved, por_skipped, dependent_wakeups, footprint_bytes,
//   dedupe_disabled_adaptively
//     Summed (|| for the flag) over every record that COMPLETED its walk -
//     including records lexicographically past the merge's return point.
//     They describe work actually performed, not work serially accounted.
//     On an exhausted, undeduped, violation-free search the decomposition
//     is invisible: every node is expanded exactly once with an identical
//     sleep set, so por_skipped and dependent_wakeups equal the serial
//     values at any worker count (asserted in tests/dist_test.cpp).
//     replay_steps_saved and footprint_bytes remain genuinely
//     decomposition-dependent telemetry (warm-pool luck, split points).
//
//   jobs, steals, states_seen, subtrees_pruned
//     Global properties of the run, not of any record: jobs = every merged
//     record (JobTable::merge), steals = records claimed by a worker other
//     than their donor (so steals <= jobs - 1), table statistics from the
//     shared store, which the thread engine overlays.  Without a shared
//     store (the distributed engine: one table per worker process) the
//     merge's defaults stand: subtrees_pruned sums the per-record counts,
//     and states_seen is the largest per-record snapshot - a record's
//     snapshot is its worker's table size when the walk ended, so this is
//     the largest per-worker distinct-state count, a lower bound on the
//     distinct states walked.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/check/explore_core.h"
#include "src/check/model_check.h"
#include "src/runtime/trace.h"

namespace revisim::check::detail {

// Lexicographic region order.  A job's key is its schedule prefix followed
// by its first choice - the lex-smallest schedule of its region, as a
// prefix.  Regions are disjoint contiguous intervals and a key that
// prefixes another belongs to the region that starts first (the donor's
// remaining work precedes everything it donates), so shorter-prefix-first
// lexicographic comparison is exactly serial DFS order.  Crash entries
// carry the top bit (runtime::make_crash_entry) and numerically sort after
// every step entry, matching append_node_choices' enumeration order.
bool key_less(const std::vector<runtime::ProcessId>& a,
              const std::vector<runtime::ProcessId>& b);

// One job record as the merge sees it.  Pointers alias the caller's
// storage; nothing is copied.
struct MergeJob {
  enum class State {
    kDone,        // walk completed (possibly a partial walk after an abort)
    kFailed,      // threw past its retry budget; `error` holds the message
    kUnfinished,  // never ran, or was pre-skipped as provably unreadable
  };

  const std::vector<runtime::ProcessId>* key = nullptr;
  State state = State::kUnfinished;
  const SubtreeResult* result = nullptr;  // valid when kDone
  const std::string* error = nullptr;     // valid when kFailed
};

// Sorts `jobs` by region key in place and merges them under the execution
// cap.  `attempts` is the per-job attempt budget (retries + 1), quoted in
// the kFailed error message.  A kUnfinished record at or before the merge's
// return point means work the run could not perform: with
// `unfinished_error` empty that is a wall-clock truncation (timed_out);
// nonempty, it becomes the partial summary's error - the distributed
// coordinator's every-worker-lost path.  jobs/steals are left for the
// caller to overlay (see the contract above).
ScheduleExploreResult merge_job_results(std::vector<MergeJob>& jobs,
                                        std::uint64_t cap,
                                        std::size_t attempts,
                                        const std::string& unfinished_error);

// --- the job table ------------------------------------------------------------

// One job: a region of the schedule tree plus its scheduling state.
// Engines extend it with what only they need (the thread engine's donated
// warm world; the coordinator's job id) and downcast the records the table
// hands back.
struct JobRecord {
  enum State : int { kPending, kRunning, kDone, kFailed, kAborted };

  JobRecord() = default;
  JobRecord(const JobRecord&) = delete;
  JobRecord& operator=(const JobRecord&) = delete;
  JobRecord(JobRecord&&) = delete;
  JobRecord& operator=(JobRecord&&) = delete;
  virtual ~JobRecord() = default;

  // Sets the region - the path to its root node, the untried choices there
  // (empty = all, the seed job) and the POR sleep set of Donation - and
  // derives the key: prefix + first choice, the lex-smallest schedule of
  // the region (see key_less).
  void set_region(std::vector<runtime::ProcessId> region_prefix,
                  std::vector<runtime::ProcessId> region_choices,
                  std::vector<runtime::ProcessId> region_sleep,
                  std::size_t region_sleep_inherited);

  std::vector<runtime::ProcessId> key;
  std::vector<runtime::ProcessId> prefix;
  std::vector<runtime::ProcessId> choices;
  std::vector<runtime::ProcessId> sleep;  // Donation::sleep
  std::size_t sleep_inherited = 0;        // Donation::sleep_inherited
  std::size_t donor = 0;   // worker that split this job off
  bool donated = false;    // false for the seed and for resumed jobs
  State state = kPending;  // changed only through the table
  // Executions counted so far by the job's current attempt.  The thread
  // engine's walk publishes it live (relaxed stores, outside any lock);
  // the coordinator feeds it from kLive messages.  Summing the counters of
  // lexicographically earlier records lower-bounds the serial execution
  // count before this record's region (a counter never exceeds its
  // region's serial total), which is what keeps cap-skipping sound.
  std::atomic<std::uint64_t> live{0};
  SubtreeResult result;  // valid once state == kDone
  std::string error;     // valid once state == kFailed
  // An ancestor's re-run re-covers this region: the record is out of the
  // cap bound, the violation key and the merge.
  bool cancelled = false;
  std::size_t failures = 0;  // failed attempts so far
  // Walk with dedupe off: set on a re-run and inherited by everything it
  // donates (see JobTable::retry_or_fail).
  bool no_dedupe = false;
  // Everything the job donated, over every attempt: a failed attempt's
  // re-run walks the job's FULL original region, so these (recursively)
  // are cancelled or they would be counted twice.
  std::vector<JobRecord*> children;
};

// The scheduling policy both parallel engines share.  It holds no lock:
// the thread engine calls it under its coordinator mutex, the distributed
// coordinator from its single-threaded event loop.  Only JobRecord::live
// may change concurrently (relaxed atomic stores by running walks).
class JobTable {
 public:
  // `retries`: failed attempts a job may re-run (ParallelExploreOptions::
  // job_retries).  `dedupe`: walks consult a shared state table.
  JobTable(std::uint64_t cap, std::size_t retries, bool dedupe)
      : cap_(cap), retries_(retries), dedupe_(dedupe) {}

  // Appends a pending record (the seed, or a resumed job) and returns it.
  JobRecord* add(std::unique_ptr<JobRecord> rec);
  // Appends a region that worker `donor` split off `parent`'s walk.
  JobRecord* donate(std::unique_ptr<JobRecord> child, JobRecord& parent,
                    std::size_t donor);

  // Claims the lexicographically earliest pending job for `worker`:
  // earlier regions finish earlier, which tightens every later job's cap
  // bound and lets a violation cut the most work.  A job whose result the
  // merge can no longer read is marked kAborted and passed over.  Returns
  // null when no job is pending; otherwise the job is kRunning, a steal is
  // counted if `worker` is not its donor, and *budget is the execution cap
  // it may still use (cap minus bound_before).
  JobRecord* claim(std::size_t worker, std::uint64_t* budget);

  // Sum of live counters over non-cancelled records lex-before `key`.
  [[nodiscard]] std::uint64_t bound_before(
      const std::vector<runtime::ProcessId>& key) const;

  // Can the merge still read `rec`?  Not after fail_run, not if it was
  // cancelled, if a violation sits at a lex-earlier key (the merge returns
  // at or before it), or if lex-earlier regions already reach the cap.
  [[nodiscard]] bool readable(const JobRecord& rec) const;

  // The walk ended (possibly partially, after an abort): the result is
  // kept and its violation joins the min-key violation.  A cancelled
  // record's result is dropped.
  void complete(JobRecord& rec, SubtreeResult result);

  // An attempt failed (it threw, or its worker was lost).  Within
  // `retries` failures the job goes back to pending and returns true.  The
  // re-run walks the full original region, so every descendant is
  // cancelled first and appended to `*cancelled` when given: a pending one
  // is aborted, a running one is left to its engine's abort (readable
  // turns false).  Under dedupe the re-run walks with dedupe off (and so
  // does all it donates): the failed attempt's claims survive in the
  // shared table and must not prune it.  Past `retries`, or for a
  // cancelled job, which is never merged, the job fails with `error`.
  bool retry_or_fail(JobRecord& rec, std::string error,
                     std::vector<JobRecord*>* cancelled = nullptr);

  // An attempt failed in a way no re-run can repair: the dedupe audit
  // found two canonical states behind one fingerprint, so every prune
  // taken anywhere in the run is suspect.  The job fails without a retry,
  // no record is readable afterwards (claim() aborts every pending job,
  // running walks are aborted through readable()), and merge() reports
  // the first such `error` with exhausted false.
  void fail_run(JobRecord& rec, std::string error);

  // Marshals the non-cancelled records into merge_job_results (a failed
  // job reports retries + 1 attempts; see its contract for
  // `unfinished_error`), applies a fail_run error, and sets jobs and
  // steals.  Shared-table statistics are the caller's to overlay.
  [[nodiscard]] ScheduleExploreResult merge(
      const std::string& unfinished_error) const;

  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
  [[nodiscard]] std::size_t running() const noexcept { return running_; }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }

 private:
  [[nodiscard]] bool readable(const JobRecord& rec,
                              std::uint64_t before) const;
  // Moves `rec` to `next`, keeping the pending/running counts exact.
  void leave(JobRecord& rec, JobRecord::State next);
  void cancel_descendants(JobRecord& rec, std::vector<JobRecord*>* cancelled);

  std::uint64_t cap_;
  std::size_t retries_;
  bool dedupe_;
  std::vector<std::unique_ptr<JobRecord>> records_;  // append-only
  std::size_t pending_ = 0;
  std::size_t running_ = 0;
  std::size_t steals_ = 0;
  std::string fatal_;  // first fail_run error; nonempty ends the run
  // Key of the lex-smallest violation recorded so far.
  bool have_violation_ = false;
  std::vector<runtime::ProcessId> violation_key_;
};

// --- checkpoint-resume planning ---------------------------------------------
//
// A resumed run (src/dist/journal.h) replays the journaled job genealogy
// to decide what each recorded region contributes.  The invariant that
// makes this merge-exact: a job's original (prefix, choices) region equals
// its own remaining region plus the regions of everything it ever donated,
// recursively - so re-running an incomplete job from its original spec
// re-covers ALL its descendants, and those descendants (even completed
// ones) must be excluded or they would be double counted.

enum class ResumeAction : std::uint8_t {
  kReuse,    // done, all ancestors done: merge the journaled result as-is
  kRerun,    // not done, all ancestors done: re-run from the recorded spec
  kDiscard,  // an ancestor reruns; this region is re-covered by it
};

struct ResumeJob {
  std::uint64_t id = 0;
  bool has_parent = false;
  std::uint64_t parent = 0;
  bool done = false;
};

// One action per input job (same order).  A parent id that matches no job
// in the list - corruption an append-only journal cannot produce - is
// treated as an un-done ancestor, so the orphan is conservatively
// discarded rather than double counted.
std::vector<ResumeAction> plan_resume(const std::vector<ResumeJob>& jobs);

}  // namespace revisim::check::detail
