#include "src/check/state_table.h"

#include <new>
#include <sys/mman.h>
#include <thread>

namespace revisim::check {
namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

StateTable::StateTable() : StateTable(Options{}) {}

StateTable::StateTable(Options options) : audit_(options.audit) {
  if (!audit_) {
    const std::size_t cap =
        round_up_pow2(options.capacity < 16 ? 16 : options.capacity);
    // A private anonymous mapping: the kernel zeroes it (== kEmpty) page
    // by page as slots are claimed.  calloc did the same only until a freed
    // table raised glibc's dynamic mmap threshold past the table's 24 MiB;
    // from then on it carved each table from the heap and zeroed all of
    // it, which in a forked worker is one copy-on-write fault per page.
    // Huge pages keep a full table to a dozen faults where the kernel
    // allows them (a no-op elsewhere).
    const std::size_t bytes = cap * sizeof(Slot);
    void* slots = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (slots == MAP_FAILED) {
      throw std::bad_alloc();
    }
    ::madvise(slots, bytes, MADV_HUGEPAGE);
    slots_ = static_cast<Slot*>(slots);
    mask_ = cap - 1;
    high_water_ = cap - cap / 8;
  }
}

StateTable::~StateTable() {
  if (slots_ != nullptr) {
    ::munmap(slots_, (mask_ + 1) * sizeof(Slot));
  }
}

bool StateTable::insert_lockfree(util::Fingerprint fp) {
  if (size_.load(std::memory_order_relaxed) >= high_water_) {
    // Saturated: admit without recording.  The caller walks the subtree (no
    // unsound prune is possible - nothing new is recorded), dedupe merely
    // stops shrinking the search past this point.
    saturated_.store(true, std::memory_order_relaxed);
    return true;
  }
  std::size_t idx = FingerprintHash{}(fp) & mask_;
  for (std::size_t probes = 0; probes <= mask_; ++probes) {
    Slot& slot = slots_[idx];
    std::atomic_ref<std::uint32_t> state(slot.state);
    for (;;) {
      std::uint32_t st = state.load(std::memory_order_acquire);
      if (st == kBusy) {
        // The claimant is between its CAS and its FULL release - a handful
        // of instructions; spin until the key is published.
        std::this_thread::yield();
        continue;
      }
      if (st == kFull) {
        // The acquire load of kFull orders these reads after the
        // claimant's key writes.
        if (std::atomic_ref<std::uint64_t>(slot.lo).load(
                std::memory_order_relaxed) == fp.lo &&
            std::atomic_ref<std::uint64_t>(slot.hi).load(
                std::memory_order_relaxed) == fp.hi) {
          hits_.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        break;  // occupied by another key; probe the next slot
      }
      // kEmpty: claim it.  On a lost race, re-examine the same slot (the
      // winner may have inserted this very key).
      std::uint32_t expected = kEmpty;
      if (state.compare_exchange_strong(expected, kBusy,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        std::atomic_ref<std::uint64_t>(slot.lo).store(
            fp.lo, std::memory_order_relaxed);
        std::atomic_ref<std::uint64_t>(slot.hi).store(
            fp.hi, std::memory_order_relaxed);
        state.store(kFull, std::memory_order_release);
        size_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    idx = (idx + 1) & mask_;
  }
  // Unreachable below the high-water mark (empty slots always remain), but
  // degrade like saturation rather than loop forever.
  saturated_.store(true, std::memory_order_relaxed);
  return true;
}

bool StateTable::insert(util::Fingerprint fp,
                        const std::function<std::string()>& canonical) {
  if (!audit_) {
    return insert_lockfree(fp);
  }
  // Audit mode: serialize outside the lock (the canonical string depends
  // only on the caller's world, not on the table).
  std::string state = canonical ? canonical() : std::string{};
  std::lock_guard<std::mutex> lock(audit_mu_);
  // try_emplace leaves `state` intact when the key already exists.
  auto [it, inserted] = canon_.try_emplace(fp, std::move(state));
  if (inserted) {
    return true;
  }
  if (canonical && it->second != state) {
    throw StateFingerprintCollision(
        "128-bit state fingerprint collision: two distinct canonical states "
        "hash equal; pruning would be unsound (stored=\"" +
        it->second.substr(0, 128) + "...\")");
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

std::size_t StateTable::states() const {
  if (!audit_) {
    return size_.load(std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(audit_mu_));
  return canon_.size();
}

}  // namespace revisim::check
