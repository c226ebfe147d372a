// Canonical spec hashing (stg/canon.hpp) and the FlowOptions fingerprint —
// the two halves of the serve cache key.  The hash must collide for every
// formatting/comment/declaration-order presentation of the same
// specification and separate semantically distinct ones; the fingerprint
// must cover every output-affecting option and ignore the purely
// observational ones (deadlines, emit paths).  The option table the
// fingerprint is derived from must have a row for every options field, and
// its CLI flags and serve keys must agree.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "flow/options.hpp"
#include "stg/canon.hpp"
#include "stg/load.hpp"
#include "util/error.hpp"
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

// ---- FlowOptions fingerprint and the option table -----------------------

TEST(OptionsFingerprint, EveryOptionsFieldHasARow) {
  // A structured binding must name every member, so a field added to any
  // options struct stops this test from compiling.  Count it in kLeaves and
  // give it a row in flow/options.cpp; OutputAffectingFieldsChangeTheKey
  // then pins the row's role.
  [[maybe_unused]] auto [f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12,
                         f13, f14, f15, f16, f17, f18, f19] = FlowOptions{};
  [[maybe_unused]] auto [mc1, mc2, mc3] = McOptions{};
  [[maybe_unused]] auto [c1, c2, c3] = CscOptions{};
  [[maybe_unused]] auto [m1, m2, m3, m4, m5, m6, m7] = MapperOptions{};
  [[maybe_unused]] auto [lib1] = GateLibrary{};
  [[maybe_unused]] auto [k1] = CheckOptions{};
  [[maybe_unused]] auto [n1] = NlintOptions{};
  // Leaf settings: nested structs count as their members, and
  // FlowOptions::guard is a runtime handle with no row.
  constexpr std::size_t kLeaves = (19 - 4 - 1) + 3 + 3 +
                                  (7 - 2 + 1 + 3) + (1 - 1 + 1);
  EXPECT_EQ(option_table().size(), kLeaves);

  std::set<std::string> fields, keys, flags;
  for (const OptionRow& row : option_table()) {
    EXPECT_TRUE(fields.insert(row.field).second) << row.field;
    if (row.key) {
      EXPECT_TRUE(keys.insert(row.key).second) << row.key;
    }
    for (const char* flag : row.flags) {
      if (flag) {
        EXPECT_TRUE(flags.insert(flag).second) << flag;
      }
    }
  }
}

/// Values of the row's kind to set it to.
std::vector<Json> probes(const OptionRow& row) {
  switch (row.kind) {
    case OptionKind::kBool: return {Json(true), Json(false)};
    case OptionKind::kInt:
    case OptionKind::kCount: return {Json(row.min + 7)};
    case OptionKind::kMs: return {Json(250)};
    case OptionKind::kStage: return {Json("synth")};
    case OptionKind::kPath: return {Json("out.file")};
    case OptionKind::kStageList: {
      Json list = Json::array();
      list.push(Json("map"));
      return {list};
    }
    case OptionKind::kChoice: {
      std::vector<Json> all;
      for (int i = 0; row.choices[i]; ++i) all.emplace_back(row.choices[i]);
      return all;
    }
  }
  return {};
}

/// One row's own contribution to a fingerprint: did the field move?
std::uint64_t row_digest(const OptionRow& row, const FlowOptions& o) {
  StableHasher h;
  row.hash(o, h);
  return h.digest().lo;
}

TEST(OptionsFingerprint, OutputAffectingFieldsChangeTheKey) {
  const FlowOptions base;
  std::set<std::string> observational;
  for (const OptionRow& row : option_table()) {
    if (row.role == OptionRole::kObservational) observational.insert(row.field);
    bool moved = false;
    for (const Json& v : probes(row)) {
      FlowOptions o;
      row.set(o, v, row.field);
      const bool changed = row_digest(row, o) != row_digest(row, base);
      moved = moved || changed;
      EXPECT_EQ(o.fingerprint() != base.fingerprint(),
                changed && row.role == OptionRole::kOutput)
          << row.field << " = " << v.dump(0);
    }
    EXPECT_TRUE(moved) << row.field << ": no probe moved the field";
  }
  // Every other setting can change what a run produces; a row that claims
  // the observational role must be added here, and to
  // ObservationalFieldsDoNot, on purpose.
  EXPECT_EQ(observational, (std::set<std::string>{"deadline_ms", "format"}));
}

TEST(OptionsFingerprint, CliFlagsAndServeKeysAgree) {
  // Each case is one value as typed on the command line and as written in
  // a request.
  const std::pair<const char*, const char*> cases[] = {
      {"-1", "-1"},         {"0", "0"},         {"3", "3"},
      {"2.5", "2.5"},       {"1e20", "1e20"},   {"99999999999", "99999999999"},
      {"synth", "\"synth\""}, {"degrade", "\"degrade\""}, {"nope", "\"nope\""},
  };
  const auto accepts = [](auto&& apply) {
    try {
      apply();
      return true;
    } catch (const Error&) {
      return false;
    }
  };
  int compared = 0;
  for (const OptionRow& row : option_table()) {
    if (!row.key || !row.flags[0]) continue;
    ASSERT_EQ(option_by_key(row.key), &row);
    for (const char* spelling : row.flags) {
      if (!spelling) continue;
      const std::string flag = spelling;
      ASSERT_EQ(option_by_flag(flag), &row);
      if (row.kind == OptionKind::kBool) {
        FlowOptions cli, serve;
        row.set(cli, row.cli_value(flag, nullptr), flag.c_str());
        const bool on = !flag.starts_with("--no-");
        option_by_key(row.key)->set(serve, Json(on), row.key);
        EXPECT_EQ(cli.fingerprint(), serve.fingerprint()) << flag;
        ++compared;
        continue;
      }
      for (const auto& [arg, literal] : cases) {
        const std::string text = row.kind == OptionKind::kStageList
                                     ? "[" + std::string(literal) + "]"
                                     : std::string(literal);
        FlowOptions cli, serve;
        const bool cli_ok = accepts(
            [&] { row.set(cli, row.cli_value(flag, arg), flag.c_str()); });
        const bool serve_ok = accepts([&] {
          option_by_key(row.key)->set(serve, Json::parse(text), row.key);
        });
        EXPECT_EQ(cli_ok, serve_ok) << flag << " " << arg;
        if (std::string_view(arg) == "-1") {
          EXPECT_FALSE(cli_ok) << flag << " accepts -1";
        }
        if (cli_ok && serve_ok) {
          EXPECT_EQ(cli.fingerprint(), serve.fingerprint())
              << flag << " " << arg;
        }
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 0);
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
