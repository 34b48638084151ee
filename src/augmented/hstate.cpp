#include "src/augmented/hstate.h"

#include <algorithm>
#include <cassert>

namespace revisim::aug {

bool is_prefix(const HView& h, const HView& g) {
  assert(h.size() == g.size());
  for (std::size_t j = 0; j < h.size(); ++j) {
    const auto& a = h[j].triples;
    const auto& b = g[j].triples;
    if (a.size() > b.size() ||
        !std::equal(a.begin(), a.end(), b.begin())) {
      return false;
    }
  }
  return true;
}

bool is_proper_prefix(const HView& h, const HView& g) {
  return is_prefix(h, g) && !triples_equal(h, g);
}

bool triples_equal(const HView& h, const HView& g) {
  assert(h.size() == g.size());
  for (std::size_t j = 0; j < h.size(); ++j) {
    if (h[j].triples != g[j].triples) {
      return false;
    }
  }
  return true;
}

Timestamp new_timestamp(const HView& h, std::size_t me) {
  std::vector<std::uint32_t> parts(h.size());
  for (std::size_t j = 0; j < h.size(); ++j) {
    parts[j] = static_cast<std::uint32_t>(num_bu(h, j));
  }
  parts.at(me) += 1;
  return Timestamp(std::move(parts));
}

View get_view(const HView& h, std::size_t m) {
  View out(m);
  std::vector<const UpdateTriple*> best(m, nullptr);
  for (const HComp& comp : h) {
    for (const UpdateTriple& tr : comp.triples) {
      assert(tr.component < m);
      const UpdateTriple*& b = best[tr.component];
      if (b == nullptr || b->ts < tr.ts) {
        b = &tr;
      }
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    if (best[j] != nullptr) {
      out[j] = best[j]->value;
    }
  }
  return out;
}

std::shared_ptr<const HView> read_lrecord(const HView& h, std::size_t j,
                                          std::size_t target,
                                          std::size_t index) {
  const auto& recs = h.at(j).lrecords;
  for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
    if (it->target == target && it->index == index) {
      if (it->h == nullptr) {
        return nullptr;
      }
      return std::shared_ptr<const HView>(it->h, &it->h->view);
    }
  }
  return nullptr;
}

}  // namespace revisim::aug
