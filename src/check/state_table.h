// Visited-state transposition table for the schedule explorer.
//
// Keys are 128-bit state fingerprints (src/util/fingerprint.h).  The table
// is a fixed-capacity open-addressing array with linear probing and a
// per-slot publication protocol (EMPTY -> BUSY -> FULL): an insert claims an
// empty slot with one CAS, writes the key, and release-publishes FULL, so
// the thread explorer's workers share one table with no locks at all, the
// serial explorer and each distributed worker process own one, and an
// owner pays a single uncontended CAS per distinct state.
// The claim is synchronous - a successful insert *is* the claim-then-walk
// handshake: whichever worker wins the CAS owns the subtree walk, and every
// racing worker observes the published key and prunes, which is what keeps
// parallel `states_seen` from exceeding the serial count on exhausted
// searches (each distinct state is claimed and walked exactly once).
//
// Capacity is fixed at construction (a power of two).  Slots live in a
// private anonymous mapping that the kernel zeroes as pages are first
// touched, so a search pays only for the pages its states land on, never
// for zeroing the whole table up front.  When occupancy reaches 7/8 the
// table *saturates*: further inserts of unseen states return true without
// recording (the walk proceeds, nothing is pruned that was not recorded),
// so dedupe degrades to a partial accelerant instead of failing - see
// saturated().
//
// Collision-audit mode stores the full canonical state string behind every
// fingerprint and fails loudly - by throwing StateFingerprintCollision - if
// a 128-bit hash ever maps two distinct canonical states together.  A prune
// taken on a colliding hash would silently skip a genuinely unexplored
// subtree; audit mode converts that silent unsoundness into a hard error
// (at the memory cost of retaining every canonical state, behind a single
// mutex - audit is a validation mode, not a fast path).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "src/util/fingerprint.h"

namespace revisim::check {

class StateFingerprintCollision : public std::runtime_error {
 public:
  explicit StateFingerprintCollision(const std::string& what)
      : std::runtime_error(what) {}
};

class StateTable {
 public:
  struct Options {
    bool audit = false;  // retain canonical states, detect collisions
    // Slot count, rounded up to a power of two.  ~24 bytes per slot,
    // allocated zeroed (lazily mapped), saturating at 7/8 occupancy.
    std::size_t capacity = std::size_t{1} << 20;
  };

  StateTable();
  explicit StateTable(Options options);
  ~StateTable();

  StateTable(const StateTable&) = delete;
  StateTable& operator=(const StateTable&) = delete;

  // Records fp as visited.  Returns true iff fp was new (the caller owns the
  // subtree walk); false means the state was already visited and the caller
  // prunes.  Lock-free (one CAS on the claimed slot) except in audit mode.
  // `canonical` produces the full canonical state string; it is invoked only
  // in audit mode (once on first insert, once per subsequent hit to
  // cross-check), so non-audit runs never pay for serialization.  Throws
  // StateFingerprintCollision if audit finds two canonical states behind one
  // fingerprint.
  bool insert(util::Fingerprint fp,
              const std::function<std::string()>& canonical = {});

  [[nodiscard]] bool audit() const noexcept { return audit_; }

  // Distinct states recorded.
  [[nodiscard]] std::size_t states() const;

  // Pruning hits: inserts that found the state already present.
  [[nodiscard]] std::size_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }

  // True once occupancy reached 7/8 of capacity and inserts began admitting
  // states without recording them (dedupe became partial).
  [[nodiscard]] bool saturated() const noexcept {
    return saturated_.load(std::memory_order_relaxed);
  }

 private:
  struct FingerprintHash {
    std::size_t operator()(const util::Fingerprint& fp) const noexcept {
      return static_cast<std::size_t>(fp.lo ^ (fp.hi * 0x9e3779b97f4a7c15ull));
    }
  };

  // One open-addressing slot.  `state` moves EMPTY -> BUSY -> FULL exactly
  // once; lo/hi are written between the BUSY claim and the FULL release, so
  // an acquire load of FULL makes them safely readable.  Accessed through
  // std::atomic_ref over an anonymous mapping: zeroed == EMPTY, and pages
  // are touched only as slots are claimed.
  struct Slot {
    std::uint64_t lo;
    std::uint64_t hi;
    std::uint32_t state;
    std::uint32_t pad;
  };
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kBusy = 1;
  static constexpr std::uint32_t kFull = 2;

  bool insert_lockfree(util::Fingerprint fp);

  Slot* slots_ = nullptr;
  std::size_t mask_ = 0;
  std::size_t high_water_ = 0;  // 7/8 of capacity
  bool audit_ = false;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> hits_{0};
  std::atomic<bool> saturated_{false};

  // Audit mode only: the canonical state behind each fingerprint.
  std::mutex audit_mu_;
  std::unordered_map<util::Fingerprint, std::string, FingerprintHash> canon_;
};

}  // namespace revisim::check
