// State-fingerprint soundness and transposition-table behaviour.
//
// The dedupe contract rests on two properties checked here: worlds that
// reach the same canonical global state through different schedule prefixes
// hash equal (so transpositions actually merge), and perturbing any
// ingredient of the canonical state - a register's contents, a process's
// poised step, its step count, its done flag - changes the hash (so states
// with different residual behaviour never merge).  On top of that, serial
// dedupe runs must preserve the explorer's verdict while pruning at least
// half the executions on a state-merging world, and collision-audit mode
// must turn a fabricated 128-bit collision into a loud failure.  The
// augmented snapshot's published helping views reach the hash stream as
// memoised digests: the tests below check that this keeps the hash a
// function of the state alone and leaves the audit text complete.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/augmented/hstate.h"
#include "src/check/crash_worlds.h"
#include "src/check/model_check.h"
#include "src/check/state_table.h"
#include "src/memory/register.h"
#include "src/runtime/scheduler.h"
#include "src/util/fingerprint.h"

namespace revisim {
namespace {

using check::ExplorableWorld;
using check::explore_schedules;
using check::ScheduleExploreOptions;
using check::StateFingerprintCollision;
using check::StateTable;
using mem::TypedRegister;
using runtime::ProcessId;
using runtime::Scheduler;
using runtime::Task;

util::Fingerprint digest_of(Scheduler& sched) {
  util::HashSink sink;
  sched.state_digest(sink);
  return sink.digest();
}

Task<void> write_script(TypedRegister<Val>& reg, Val v, std::size_t writes) {
  for (std::size_t i = 0; i < writes; ++i) {
    co_await reg.write(v);
  }
}

Task<void> read_script(TypedRegister<Val>& reg, std::size_t reads) {
  for (std::size_t i = 0; i < reads; ++i) {
    co_await reg.read();
  }
}

// Two processes writing fixed values to *disjoint* registers: any two
// schedules with equal per-process step counts reach identical states.
struct DisjointWriters {
  Scheduler sched;
  TypedRegister<Val> a{sched, "A", 0};
  TypedRegister<Val> b{sched, "B", 0};

  explicit DisjointWriters(Val va = 5, Val vb = 9) {
    sched.spawn(write_script(a, va, 2), "p");
    sched.spawn(write_script(b, vb, 2), "q");
  }
};

TEST(Fingerprint, DeterministicAcrossWorldInstances) {
  DisjointWriters w1, w2;
  EXPECT_EQ(digest_of(w1.sched), digest_of(w2.sched));
  w1.sched.run_step(0);
  w2.sched.run_step(0);
  EXPECT_EQ(digest_of(w1.sched), digest_of(w2.sched));
}

TEST(Fingerprint, EqualStatesViaDifferentPrefixesHashEqual) {
  // Schedules 01 and 10 commute on disjoint registers: same step counts,
  // same contents, same poised steps - one canonical state, one hash.
  DisjointWriters w1, w2;
  w1.sched.run_step(0);
  w1.sched.run_step(1);
  w2.sched.run_step(1);
  w2.sched.run_step(0);
  EXPECT_EQ(digest_of(w1.sched), digest_of(w2.sched));

  // The full canonical text agrees too, not just the 128-bit hash.
  std::string t1, t2;
  util::TextSink s1(t1), s2(t2);
  w1.sched.state_digest(s1);
  w2.sched.state_digest(s2);
  EXPECT_EQ(t1, t2);
  EXPECT_FALSE(t1.empty());
}

TEST(Fingerprint, RegisterContentsChangeHash) {
  DisjointWriters w1(5, 9), w2(6, 9);  // p writes 5 vs 6
  EXPECT_EQ(digest_of(w1.sched), digest_of(w2.sched));  // not yet written
  w1.sched.run_step(0);
  w2.sched.run_step(0);
  EXPECT_NE(digest_of(w1.sched), digest_of(w2.sched));
}

TEST(Fingerprint, StepCountChangesHash) {
  // Two writes of the same value: contents and poised step agree after one
  // and after two steps; only the step count separates the states.  It
  // must - the remaining depth budget differs.
  DisjointWriters w1, w2;
  w1.sched.run_step(0);
  w2.sched.run_step(0);
  w2.sched.run_step(0);
  EXPECT_NE(digest_of(w1.sched), digest_of(w2.sched));
}

Task<void> read_two(TypedRegister<Val>& first, TypedRegister<Val>& second) {
  co_await first.read();
  co_await second.read();
}

Task<void> read_then_write(TypedRegister<Val>& reg, bool second_is_read) {
  co_await reg.read();
  if (second_is_read) {
    co_await reg.read();
  } else {
    co_await reg.write(0);  // writes the value already there
  }
}

TEST(Fingerprint, PoisedObjectChangesHash) {
  // After one executed step the process is poised on register A vs B; step
  // counts and register contents agree (reads mutate nothing).
  auto build = [](bool second_on_a) {
    auto s = std::make_unique<Scheduler>();
    auto a = std::make_unique<TypedRegister<Val>>(*s, "A", Val{0});
    auto b = std::make_unique<TypedRegister<Val>>(*s, "B", Val{0});
    s->spawn(read_two(*a, second_on_a ? *a : *b), "p");
    s->run_step(0);
    return std::tuple{std::move(s), std::move(a), std::move(b)};
  };
  auto [s1, a1, b1] = build(true);
  auto [s2, a2, b2] = build(false);
  EXPECT_NE(digest_of(*s1), digest_of(*s2));
}

TEST(Fingerprint, PoisedKindChangesHash) {
  // Poised read vs poised write-of-the-same-value on one register: contents
  // and step counts agree, only the poised step kind separates the states.
  auto build = [](bool second_is_read) {
    auto s = std::make_unique<Scheduler>();
    auto r = std::make_unique<TypedRegister<Val>>(*s, "R", Val{0});
    s->spawn(read_then_write(*r, second_is_read), "p");
    s->run_step(0);
    return std::pair{std::move(s), std::move(r)};
  };
  auto [s1, r1] = build(true);
  auto [s2, r2] = build(false);
  EXPECT_NE(digest_of(*s1), digest_of(*s2));
}

TEST(Fingerprint, DoneFlagChangesHash) {
  // A finished process vs one more step to go.
  auto build = [] {
    auto s = std::make_unique<Scheduler>();
    auto r = std::make_unique<TypedRegister<Val>>(*s, "R", Val{0});
    s->spawn(read_script(*r, 2), "p");
    return std::pair{std::move(s), std::move(r)};
  };
  auto [s1, r1] = build();
  auto [s2, r2] = build();
  s1->run_step(0);
  s2->run_step(0);
  s2->run_step(0);  // done
  EXPECT_NE(digest_of(*s1), digest_of(*s2));
}

// --- memoised digests of published helping views --------------------------

// Counts the words it receives; folds shared values into digests or not.
class CountingSink final : public util::StateSink {
 public:
  explicit CountingSink(bool folds) : folds_(folds) {}
  void word(std::uint64_t /*w*/) override { ++words; }
  [[nodiscard]] bool folds_shared() const override { return folds_; }

  std::size_t words = 0;

 private:
  bool folds_;
};

// The encoding of H contents with every helping view streamed in full,
// written out independently of the fingerprint_into methods: the reference
// the audit text must keep matching.
void stream_in_full(util::StateSink& sink, const aug::HView& h) {
  sink.word(h.size());
  for (const aug::HComp& comp : h) {
    util::feed(sink, comp.triples);
    sink.word(comp.num_bu);
    sink.word(comp.lrecords.size());
    for (const aug::LRecord& rec : comp.lrecords) {
      sink.word(rec.target);
      sink.word(rec.index);
      sink.word(rec.h != nullptr ? 1 : 0);
      if (rec.h != nullptr) {
        stream_in_full(sink, rec.h->view);
      }
    }
  }
}

std::string text_of(const aug::HView& h) {
  std::string out;
  util::TextSink sink(out);
  util::feed(sink, h);
  return out;
}

util::Fingerprint hash_of(const aug::HView& h) {
  util::HashSink sink;
  util::feed(sink, h);
  return sink.digest();
}

// H contents whose only triple sits two helping views deep: H[0] publishes
// a view whose H[1] publishes a view holding `innermost`.
aug::HView doubly_nested(Val innermost) {
  aug::HView inner(2);
  inner[0].triples.push_back(
      aug::UpdateTriple{0, innermost, aug::Timestamp({1, 0})});
  inner[0].num_bu = 1;
  aug::HView middle(2);
  middle[1].lrecords.push_back(
      aug::LRecord{0, 1, std::make_shared<const aug::PublishedView>(inner)});
  aug::HView outer(2);
  outer[0].lrecords.push_back(
      aug::LRecord{1, 0, std::make_shared<const aug::PublishedView>(middle)});
  return outer;
}

TEST(PublishedView, DifferenceInsideNestedViewChangesHashAndText) {
  const aug::HView a = doubly_nested(5);
  const aug::HView b = doubly_nested(6);
  EXPECT_NE(hash_of(a), hash_of(b));
  EXPECT_NE(text_of(a), text_of(b));
  EXPECT_EQ(hash_of(a), hash_of(doubly_nested(5)));  // fresh memos agree

  // One level deep too: the published view itself differs.
  aug::HView c = doubly_nested(5);
  aug::HView d = doubly_nested(5);
  d[0].lrecords[0] = aug::LRecord{
      1, 0, std::make_shared<const aug::PublishedView>(aug::HView(2))};
  EXPECT_NE(hash_of(c), hash_of(d));
  EXPECT_NE(text_of(c), text_of(d));
}

TEST(PublishedView, DigestIsLazyAndOnlyHashSinksFillIt) {
  const aug::HView h = doubly_nested(5);
  const aug::PublishedView& middle = *h[0].lrecords[0].h;
  const aug::PublishedView& inner = *middle.view[1].lrecords[0].h;
  EXPECT_FALSE(middle.digest.has_value());

  (void)text_of(h);
  EXPECT_FALSE(middle.digest.has_value());
  EXPECT_FALSE(inner.digest.has_value());

  const util::Fingerprint cold = hash_of(h);
  ASSERT_TRUE(middle.digest.has_value());
  ASSERT_TRUE(inner.digest.has_value());
  EXPECT_EQ(*inner.digest, hash_of(inner.view));
  EXPECT_EQ(hash_of(h), cold);  // warm memos give the same digest
}

TEST(PublishedView, TextKeepsEveryNestedWordWhileHashFoldsThem) {
  const aug::HView h = doubly_nested(5);
  std::string reference;
  util::TextSink ref_sink(reference);
  stream_in_full(ref_sink, h);
  EXPECT_EQ(text_of(h), reference);

  CountingSink full(false);
  CountingSink folded(true);
  util::feed(full, h);
  util::feed(folded, h);
  EXPECT_EQ(full.words,
            static_cast<std::size_t>(
                std::count(reference.begin(), reference.end(), ' ')));
  // Outer level: 2 components x (triples, num_bu, lrecords) + the size
  // word, plus target, index, flag and two digest words for the record.
  EXPECT_EQ(folded.words, 1u + 2 * 3 + 5);
  EXPECT_LT(folded.words, full.words);
}

// Runs `steps` steps of q2, then q3, then q1 on an aug-bu world with f = 3:
// q3's helping view contains q2's helping record, so published views nest.
void run_nesting_schedule(check::ExplorableWorld& w, std::size_t steps,
                          std::vector<util::Fingerprint>* per_step) {
  Scheduler& sched = w.scheduler();
  std::size_t taken = 0;
  for (ProcessId p : {ProcessId{1}, ProcessId{2}, ProcessId{0}}) {
    while (taken < steps && !sched.is_done(p)) {
      sched.run_step(p);
      ++taken;
      if (per_step != nullptr) {
        per_step->push_back(w.fingerprint());
      }
    }
  }
}

auto nesting_world_factory() {
  check::CrashWorldSpec spec;
  spec.world = "aug-bu";
  spec.f = 3;
  spec.m = 2;
  return check::make_crash_world_factory(spec);
}

TEST(PublishedView, WorldFingerprintIndependentOfMemoState) {
  auto factory = nesting_world_factory();
  auto warm = factory();
  std::vector<util::Fingerprint> per_step;
  run_nesting_schedule(*warm, SIZE_MAX, &per_step);
  ASSERT_TRUE(warm->scheduler().all_done());
  ASSERT_GT(per_step.size(), 12u);

  // A second instance from the same factory, hashed cold at every prefix.
  for (std::size_t k = 1; k <= per_step.size(); ++k) {
    auto cold = factory();
    run_nesting_schedule(*cold, k, nullptr);
    EXPECT_EQ(cold->fingerprint(), per_step[k - 1]) << "prefix " << k;
  }
  EXPECT_EQ(warm->fingerprint(), per_step.back());  // rehash, all memos warm
}

TEST(PublishedView, WorldHashSeesFewerWordsThanAuditText) {
  auto w = nesting_world_factory()();
  run_nesting_schedule(*w, SIZE_MAX, nullptr);
  CountingSink full(false);
  CountingSink folded(true);
  for (CountingSink* sink : {&full, &folded}) {
    w->scheduler().state_digest(*sink);
    w->fingerprint_extra(*sink);
  }
  const std::string text = w->canonical_state();
  EXPECT_EQ(full.words,
            static_cast<std::size_t>(std::count(text.begin(), text.end(), ' ')));
  EXPECT_LT(folded.words, full.words);
}

// --- StateTable -----------------------------------------------------------

TEST(StateTable, InsertAndHitAccounting) {
  StateTable table;
  util::Fingerprint x{1, 2}, y{3, 4};
  EXPECT_TRUE(table.insert(x));
  EXPECT_TRUE(table.insert(y));
  EXPECT_FALSE(table.insert(x));
  EXPECT_FALSE(table.insert(x));
  EXPECT_EQ(table.states(), 2u);
  EXPECT_EQ(table.hits(), 2u);
}

TEST(StateTable, AuditAcceptsTrueTranspositions) {
  StateTable table(StateTable::Options{.audit = true});
  util::Fingerprint fp{7, 7};
  EXPECT_TRUE(table.insert(fp, [] { return std::string("state-a"); }));
  EXPECT_FALSE(table.insert(fp, [] { return std::string("state-a"); }));
  EXPECT_EQ(table.hits(), 1u);
}

TEST(StateTable, AuditThrowsOnFabricatedCollision) {
  StateTable table(StateTable::Options{.audit = true});
  util::Fingerprint fp{7, 7};
  EXPECT_TRUE(table.insert(fp, [] { return std::string("state-a"); }));
  EXPECT_THROW(table.insert(fp, [] { return std::string("state-b"); }),
               StateFingerprintCollision);
}

// --- serial dedupe on a state-merging world -------------------------------

Task<void> tag_script(TypedRegister<Val>& reg, Val me, std::size_t writes) {
  for (std::size_t i = 0; i < writes; ++i) {
    co_await reg.write(me);
  }
}

// Processes stamp their id into one shared register.  The canonical state
// collapses to (per-process progress, last writer), so schedules that agree
// on those merge - the transposition win is combinatorial.  The verdict
// reads only shared state, satisfying the soundness contract with no
// fingerprint_extra.
class LastWriterWorld final : public ExplorableWorld {
 public:
  LastWriterWorld(std::vector<std::size_t> writes, Val banned)
      : reg_(sched_, "R", Val{-1}), banned_(banned) {
    for (ProcessId p = 0; p < writes.size(); ++p) {
      sched_.spawn(tag_script(reg_, Val(p), writes[p]), "w");
    }
  }

  Scheduler& scheduler() override { return sched_; }

  std::optional<std::string> verdict(bool complete) override {
    if (complete && reg_.peek() == banned_) {
      return "banned last writer";
    }
    return std::nullopt;
  }

 private:
  Scheduler sched_;
  TypedRegister<Val> reg_;
  Val banned_;
};

auto last_writer_factory(std::vector<std::size_t> writes, Val banned) {
  return [writes = std::move(writes), banned] {
    return std::make_unique<LastWriterWorld>(writes, banned);
  };
}

TEST(SerialDedupe, PreservesViolationVerdict) {
  // Both explorers stop at their first violating leaf, so execution counts
  // are not comparable here (the reduction is measured on the violation-free
  // run below); what must agree is the verdict itself.
  auto factory = last_writer_factory({3, 3, 2}, 0);
  auto plain = explore_schedules(factory);
  ASSERT_TRUE(plain.violation.has_value());

  ScheduleExploreOptions opt;
  opt.dedupe_states = true;
  auto deduped = explore_schedules(factory, opt);
  EXPECT_TRUE(deduped.violation.has_value());
  EXPECT_TRUE(deduped.exhausted);
  EXPECT_GT(deduped.subtrees_pruned, 0u);
  EXPECT_GT(deduped.states_seen, 0u);
}

TEST(SerialDedupe, PreservesViolationFreeVerdict) {
  auto factory = last_writer_factory({3, 3, 2}, -7);  // never written
  auto plain = explore_schedules(factory);
  EXPECT_FALSE(plain.violation);
  EXPECT_TRUE(plain.exhausted);

  ScheduleExploreOptions opt;
  opt.dedupe_states = true;
  auto deduped = explore_schedules(factory, opt);
  EXPECT_FALSE(deduped.violation);
  EXPECT_TRUE(deduped.exhausted);
  EXPECT_LE(deduped.executions * 2, plain.executions);
}

TEST(SerialDedupe, AuditModeIsCleanOnRealStates) {
  // Full canonical states behind every hash: an honest 128-bit collision
  // would throw; none is expected at this scale.
  ScheduleExploreOptions opt;
  opt.dedupe_states = true;
  opt.dedupe_audit = true;
  auto deduped = explore_schedules(last_writer_factory({3, 3, 2}, 0), opt);
  EXPECT_TRUE(deduped.violation.has_value());
  EXPECT_GT(deduped.subtrees_pruned, 0u);
}

TEST(SerialDedupe, OffByDefault) {
  auto res = explore_schedules(last_writer_factory({2, 2}, -7));
  EXPECT_EQ(res.states_seen, 0u);
  EXPECT_EQ(res.subtrees_pruned, 0u);
  EXPECT_EQ(res.executions, 6u);  // C(4,2): no dedupe, no violation
}

}  // namespace
}  // namespace revisim
