// Contents of the single-writer snapshot H underlying the augmented
// snapshot (§3.2).
//
// Component i of H is process q_{i+1}'s append-only log.  It carries two
// kinds of entries:
//   * update triples (component of M, value, timestamp), appended in batches
//     of r by the line-4 update of a Block-Update to r components;
//   * helping records, the paper's registers L_{i,j}[b]: q_{i+1} publishing
//     "the result of a scan of H" for q_{j+1}'s b'th Block-Update.
//
// The paper's prefix order on scan results (Observation 1) concerns the
// update-triple logs: those are what Get-View and the Block-Update return
// value depend on, and helping records must not invalidate a Scan's double
// collect (otherwise two concurrent Scans could block each other, which
// would contradict Lemma 2).  Hence equality/prefix below compare triples
// only.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/augmented/timestamp.h"
#include "src/util/fingerprint.h"
#include "src/util/value.h"

namespace revisim::aug {

struct UpdateTriple {
  std::size_t component = 0;  // component of M
  Val value = 0;
  Timestamp ts;

  friend bool operator==(const UpdateTriple&, const UpdateTriple&) = default;

  void fingerprint_into(util::StateSink& sink) const {
    util::feed(sink, component);
    util::feed(sink, value);
    util::feed(sink, ts);
  }
};

struct HComp;
using HView = std::vector<HComp>;  // result of a scan of H (all f components)
struct PublishedView;

// The paper's L_{i,j}[b] <- h: "for q_{target+1}'s Block-Update number
// `index`, here is the scan result `h`".
struct LRecord {
  std::size_t target = 0;  // j: the process being helped (0-based)
  std::size_t index = 0;   // b: which of its Block-Updates
  std::shared_ptr<const PublishedView> h;  // scan result being published

  inline void fingerprint_into(util::StateSink& sink) const;
};

struct HComp {
  std::vector<UpdateTriple> triples;
  std::size_t num_bu = 0;  // #h_i: number of Block-Updates recorded (distinct
                           // timestamps in `triples`)
  std::vector<LRecord> lrecords;

  // Full contents, helping records included: a published scan result is
  // readable by later Block-Updates (read_lrecord), so it is part of the
  // canonical state.  The recursion through the embedded HView is finite
  // (views are snapshots of strictly earlier H contents).
  void fingerprint_into(util::StateSink& sink) const {
    util::feed(sink, triples);
    util::feed(sink, num_bu);
    util::feed(sink, lrecords);
  }
};

// A scan result published as a helping record: immutable once published,
// and copied into every later scan of H, so the hash stream folds it into
// a digest memoised next to it (util::feed_shared) rather than re-streaming
// it at every visit.  The view is constructed in place, in the same
// allocation as the memo.
struct PublishedView {
  explicit PublishedView(HView v) : view(std::move(v)) {}

  HView view;
  mutable std::optional<util::Fingerprint> digest;  // of `view`; lazy
};

inline void LRecord::fingerprint_into(util::StateSink& sink) const {
  util::feed(sink, target);
  util::feed(sink, index);
  sink.word(h != nullptr ? 1 : 0);
  if (h != nullptr) {
    util::feed_shared(sink, h->view, h->digest);
  }
}

// #h_j of the paper.
inline std::size_t num_bu(const HView& h, std::size_t j) {
  return h.at(j).num_bu;
}

// h is a prefix of g: component-wise, h's triple log is a prefix of g's.
[[nodiscard]] bool is_prefix(const HView& h, const HView& g);

// Proper prefix: prefix and differing in some component.
[[nodiscard]] bool is_proper_prefix(const HView& h, const HView& g);

// Triple-log equality (what a Scan's double collect compares).
[[nodiscard]] bool triples_equal(const HView& h, const HView& g);

// New-Timestamp (Algorithm 1) for process `me` (0-based).
[[nodiscard]] Timestamp new_timestamp(const HView& h, std::size_t me);

// Get-View (Algorithm 2): for each component j of M, the value with the
// lexicographically largest timestamp among all triples for j, or bottom.
[[nodiscard]] View get_view(const HView& h, std::size_t m);

// Reads the paper's L_{j+1,me+1}[index]: the view of the last helping
// record in component j of `h` with the given target and index, or
// nullptr.  The pointer shares ownership of the published record.
[[nodiscard]] std::shared_ptr<const HView> read_lrecord(const HView& h,
                                                        std::size_t j,
                                                        std::size_t target,
                                                        std::size_t index);

}  // namespace revisim::aug
