// Canonical spec hashing (stg/canon.hpp) and the FlowOptions fingerprint —
// the two halves of the serve cache key.  The hash must collide for every
// formatting/comment/declaration-order presentation of the same
// specification and separate semantically distinct ones; the fingerprint
// must cover every output-affecting option and ignore the purely
// observational ones (deadlines, emit paths).

#include <gtest/gtest.h>

#include <memory>

#include "flow/flow.hpp"
#include "stg/canon.hpp"
#include "stg/load.hpp"
#include "util/run_guard.hpp"

namespace sitm {
namespace {

SpecHash hash_of(const std::string& text) {
  return canonical_spec_hash(load_spec_string(text));
}

// ---- .g canonicalization -------------------------------------------------

const char* kBaseG = R"(.model chu133
.inputs r
.outputs o0 o1 a
.graph
r+ o0+
r- o0-
a+ r-
a- r+
o0+ o1+
o1+ a+
o0- o1-
o1- a-
.marking { <a-,r+> }
.end
)";

TEST(SpecHash, ReformattedGSpecCollides) {
  // Same net: graph lines permuted, signal declarations reordered,
  // comments and gratuitous whitespace injected, explicit /1 instance
  // suffixes spelled out.
  const char* variant = R"(# a comment the hash must not see
.model chu133
.inputs   r
.outputs a o1 o0
.graph
# arcs in a different order, with explicit instances
o1-/1 a-/1
o0+ o1+
a- r+
r+   o0+
o0- o1-
a+ r-
o1+ a+

r- o0-
.marking { <a-,r+> }
.end
)";
  EXPECT_EQ(hash_of(kBaseG).hex(), hash_of(variant).hex());
}

TEST(SpecHash, DistinctGSpecsSeparate) {
  // Different marking (same structure otherwise).
  const char* moved_marking = R"(.model chu133
.inputs r
.outputs o0 o1 a
.graph
r+ o0+
r- o0-
a+ r-
a- r+
o0+ o1+
o1+ a+
o0- o1-
o1- a-
.marking { <r+,o0+> }
.end
)";
  EXPECT_NE(hash_of(kBaseG).hex(), hash_of(moved_marking).hex());

  // Same structure but a signal moved from output to input.
  const char* flipped_kind = R"(.model chu133
.inputs r a
.outputs o0 o1
.graph
r+ o0+
r- o0-
a+ r-
a- r+
o0+ o1+
o1+ a+
o0- o1-
o1- a-
.marking { <a-,r+> }
.end
)";
  EXPECT_NE(hash_of(kBaseG).hex(), hash_of(flipped_kind).hex());
}

TEST(SpecHash, ModelNameIsPartOfTheSpecKey) {
  // The emitted module carries the model name, so two specs differing only
  // in .model must not share a cache entry.
  std::string renamed = kBaseG;
  renamed.replace(renamed.find("chu133"), 6, "chu134");
  EXPECT_NE(hash_of(kBaseG).hex(), hash_of(renamed).hex());

  // ... but the structural Stg hash underneath ignores the name.
  const Spec a = load_spec_string(kBaseG);
  const Spec b = load_spec_string(renamed);
  EXPECT_EQ(canonical_spec_hash(*a.stg).hex(),
            canonical_spec_hash(*b.stg).hex());
}

// ---- .sg canonicalization ------------------------------------------------

const char* kBaseSg = R"(.model tiny
.inputs a
.outputs b
.graph
s0 a+ s1
s1 b+ s2
s2 a- s3
s3 b- s0
.initial s0 00
.end
)";

TEST(SpecHash, RenamedAndReorderedSgCollides) {
  // State names are presentation: rename every state, list the arcs in a
  // different order, sprinkle comments.
  const char* variant = R"(.model tiny
.inputs a
.outputs b
.graph
# same cycle, different spelling
z b- w
y a- z
w a+ x
x b+ y
.initial w 00
.end
)";
  EXPECT_EQ(hash_of(kBaseSg).hex(), hash_of(variant).hex());
}

TEST(SpecHash, DifferentInitialStateSeparates) {
  const char* shifted = R"(.model tiny
.inputs a
.outputs b
.graph
s0 a+ s1
s1 b+ s2
s2 a- s3
s3 b- s0
.initial s1 10
.end
)";
  EXPECT_NE(hash_of(kBaseSg).hex(), hash_of(shifted).hex());
}

TEST(SpecHash, GAndSgPresentationsOfDifferentKindsSeparate) {
  // Sanity: a .g spec and an .sg spec never collide (distinct domain tags),
  // even when tiny.
  EXPECT_NE(hash_of(kBaseG).hex(), hash_of(kBaseSg).hex());
}

// ---- FlowOptions fingerprint --------------------------------------------

TEST(OptionsFingerprint, OutputAffectingFieldsChangeTheKey) {
  const FlowOptions base;
  const std::uint64_t fp0 = base.fingerprint();

  const auto differs = [&](auto&& mutate, const char* what) {
    FlowOptions o;
    mutate(o);
    EXPECT_NE(o.fingerprint(), fp0) << what;
  };

  differs([](FlowOptions& o) { o.mc.minimize_passes = 3; },
          "mc.minimize_passes");
  differs([](FlowOptions& o) { o.mc.threads = 4; }, "mc.threads");
  differs([](FlowOptions& o) { o.csc.rank_top_k = 2; }, "csc.rank_top_k");
  differs([](FlowOptions& o) { o.csc.max_insertions = 5; },
          "csc.max_insertions");
  differs([](FlowOptions& o) { o.mapper.library.max_literals = 3; },
          "mapper.library.max_literals");
  differs([](FlowOptions& o) { o.mapper.threads = 2; }, "mapper.threads");
  differs([](FlowOptions& o) { o.mapper.prune_pre_checks = true; },
          "mapper.prune_pre_checks");
  differs([](FlowOptions& o) { o.lint = true; }, "lint");
  differs([](FlowOptions& o) { o.check = true; }, "check");
  differs([](FlowOptions& o) { o.check_opts.nlint.max_gc_fanin = 4; },
          "check_opts.nlint.max_gc_fanin");
  differs([](FlowOptions& o) { o.check_opts.reorder = true; },
          "check_opts.reorder");
  differs([](FlowOptions& o) { o.check_opts.reorder_rounds = 5; },
          "check_opts.reorder_rounds");
  differs([](FlowOptions& o) { o.verify_max_states = 123; },
          "verify_max_states");
  differs([](FlowOptions& o) { o.max_states = 77; }, "max_states");
  differs([](FlowOptions& o) { o.work_budget = 1000; }, "work_budget");
  differs([](FlowOptions& o) { o.on_budget = FlowOptions::OnBudget::kDegrade; },
          "on_budget");
  differs([](FlowOptions& o) { o.stop_after = Stage::kSynth; }, "stop_after");
  differs([](FlowOptions& o) { o.set_skip(Stage::kMap); }, "skip[map]");
  differs([](FlowOptions& o) { o.capture_emitted = true; },
          "capture_emitted");
  // Emit *existence* is covered (it decides whether the emit stage produces
  // that output at all)...
  differs([](FlowOptions& o) { o.emit_sg_path = "out.sg"; },
          "emit_sg existence");
}

TEST(OptionsFingerprint, ObservationalFieldsDoNot) {
  const FlowOptions base;
  const std::uint64_t fp0 = base.fingerprint();

  FlowOptions deadline;
  deadline.deadline_ms = 250;
  EXPECT_EQ(deadline.fingerprint(), fp0) << "deadline_ms is observational";

  FlowOptions guarded;
  guarded.guard = std::make_shared<RunGuard>();
  EXPECT_EQ(guarded.fingerprint(), fp0) << "external guard is observational";

  FlowOptions fmt;
  fmt.format = SpecFormat::kSg;
  EXPECT_EQ(fmt.fingerprint(), fp0) << "input format is pre-parse only";

  // ... while the emit *path string* is not (same bytes land elsewhere).
  FlowOptions path_a, path_b;
  path_a.emit_sg_path = "a.sg";
  path_b.emit_sg_path = "b.sg";
  EXPECT_EQ(path_a.fingerprint(), path_b.fingerprint())
      << "emit path strings are observational";
}

TEST(OptionsFingerprint, StableAcrossCalls) {
  FlowOptions o;
  o.csc.rank_top_k = 4;
  o.deadline_ms = 10;
  EXPECT_EQ(o.fingerprint(), o.fingerprint());
}

}  // namespace
}  // namespace sitm
