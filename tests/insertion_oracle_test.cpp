// The corner-indexed insertion planner against the step-by-step sweep of
// the paper's procedure (tests/support/insertion_oracle): plan, plan_latch
// and plan_state_latch must give the same verdict, S1, ER(x+), ER(x-) and
// initial value.  The graphs are the corpus SGs, every
// SG revision the i=2 mapping of each corpus spec commits, the generator
// families and random STGs.  The divisors are the ones the mapper plans
// (every algebraic-divisor candidate of every set and reset cover, as a
// combinational signal and as a latch with its complement-literal reset),
// and the state latches pair switching regions the way CSC resolution
// does.  The oracle's failure messages sort the rejections, so the test can
// require both region growth and the cross-region check to have rejected
// some.
//
// Every plan is then checked on its copy product against its built graph
// (tests/support/insertion_verifier): PreviewVerifier's verdict, with and
// without CSC, must equal InsertionVerifier's on insert_signal's result,
// and ParentBounds::after must equal cover_lower_bounds of that result,
// whenever the graph meets the verifier's preconditions (consistent and
// speed-independent).  Each plan is checked as planned and cut back to its
// input borders (input_border_plan): the planner's own plans never fail
// persistency, the cut ones do.  Each sweep must hold failing verdicts of
// both kinds, CSC-only and persistency.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "benchlib/generators.hpp"
#include "benchlib/random_stg.hpp"
#include "benchlib/suite.hpp"
#include "core/insertion.hpp"
#include "core/mapper.hpp"
#include "core/mc_cover.hpp"
#include "flow/flow.hpp"
#include "mlogic/divisors.hpp"
#include "sg/properties.hpp"
#include "sg/regions.hpp"
#include "support/insertion_oracle.hpp"
#include "support/insertion_verifier.hpp"

namespace sitm {
namespace {

/// The cube of complemented literals of `f` (the mapper's latch reset
/// partner), or an empty cover when f uses a variable in both polarities.
Cover latch_partner(const Cover& f) {
  Cube partner = Cube::one();
  for (const auto& cube : f.cubes()) {
    for (int v = 0; v < f.num_vars(); ++v) {
      if (!cube.has_literal(v)) continue;
      const bool want = !cube.polarity(v);
      if (partner.has_literal(v) && partner.polarity(v) != want)
        return Cover(f.num_vars());
      partner = partner.with_literal(v, want);
    }
  }
  if (partner.is_one()) return Cover(f.num_vars());
  return Cover(f.num_vars(), {partner});
}

/// How many queries agreed, by outcome.
struct Tally {
  long planned = 0;
  long failed = 0;
  long growth_failed = 0;  ///< rejected by region growth
  long cross_failed = 0;   ///< rejected by the cross-region check
  long verified = 0;       ///< plans checked on their copy product
  long csc_failed = 0;     ///< of those, failing only with CSC required
  long si_failed = 0;      ///< failing without CSC required
};

/// The preview checks of one graph against its built insertions.
class PreviewCheck {
 public:
  explicit PreviewCheck(const StateGraph& sg)
      : sg_(sg), loose_(sg, false), strict_(sg, true), oracle_(sg),
        bounds_(sg) {}

  /// The plan as planned, and cut back to its input borders.
  void check(const InsertionPlan& plan, const std::string& ctx, Tally* tally) {
    check_one(plan, ctx, tally);
    check_one(input_border_plan(sg_, plan), ctx + " (input borders)", tally);
  }

 private:
  void check_one(const InsertionPlan& plan, const std::string& ctx,
                 Tally* tally) {
    const InsertionPreview preview(sg_, plan);
    const StateGraph next = insert_signal(sg_, plan, "zz0");
    const DynBitset every = ~DynBitset(sg_.num_signals());
    const bool loose = oracle_.verify(next, false, every).ok;
    const bool strict = oracle_.verify(next, true, every).ok;
    EXPECT_EQ(loose_.verify(preview).ok, loose) << ctx;
    EXPECT_EQ(strict_.verify(preview).ok, strict) << ctx;
    ++tally->verified;
    if (!loose) ++tally->si_failed;
    if (loose && !strict) ++tally->csc_failed;

    const std::vector<CoverBounds> want = cover_lower_bounds(next);
    const std::vector<CoverBounds> got = bounds_.after(preview);
    ASSERT_EQ(got.size(), want.size()) << ctx;
    for (std::size_t a = 0; a < want.size(); ++a) {
      EXPECT_EQ(got[a].set, want[a].set) << ctx << " signal " << a;
      EXPECT_EQ(got[a].reset, want[a].reset) << ctx << " signal " << a;
      EXPECT_EQ(got[a].complete, want[a].complete) << ctx << " signal " << a;
    }
  }

  const StateGraph& sg_;
  PreviewVerifier loose_, strict_;
  InsertionVerifier oracle_;
  ParentBounds bounds_;
};

class PlannerCheck {
 public:
  PlannerCheck(const StateGraph& sg, std::string label, Tally* tally)
      : sg_(sg), planner_(sg), label_(std::move(label)), tally_(tally) {
    if (check_consistency(sg) && check_speed_independence(sg))
      preview_.emplace(sg);
  }

  template <class Query>
  void compare(const std::string& what, Query&& query,
               const ReferencePlan& ref) {
    const std::string ctx = label_ + ": " + what;
    const std::optional<InsertionPlan> got = query();
    ASSERT_EQ(got.has_value(), ref.ok) << ctx << ": " << ref.why;
    if (!ref.ok) {
      ++tally_->failed;
      if (ref.why.starts_with("ER(x+): ") || ref.why.starts_with("ER(x-): "))
        ++tally_->growth_failed;
      if (ref.why.starts_with("concurrent event")) ++tally_->cross_failed;
      return;
    }
    ++tally_->planned;
    EXPECT_EQ(got->s1, ref.s1) << ctx;
    EXPECT_EQ(got->er_rise, ref.er_rise) << ctx;
    EXPECT_EQ(got->er_fall, ref.er_fall) << ctx;
    EXPECT_EQ(got->initial_value, ref.initial_value) << ctx;
    if (preview_) preview_->check(*got, ctx, tally_);
  }

  /// The mapper's divisors of every signal's set and reset covers.
  void divisors() {
    std::vector<SignalSynthesis> syntheses;
    synthesize_all(sg_, {}, &syntheses);
    for (const auto& s : syntheses) {
      for (const EventCover* ec : {&s.set, &s.reset}) {
        if (ec->cover.empty()) continue;
        for (const Cover& f : generate_divisors(ec->cover)) {
          const std::string name = f.to_string(names());
          compare(
              "plan " + name,
              [&] { return planner_.plan(f); },
              reference_plan(sg_, f));
          const Cover partner = latch_partner(f);
          if (partner.empty()) continue;
          compare(
              "plan_latch " + name,
              [&] { return planner_.plan_latch(f, partner); },
              reference_plan_latch(sg_, f, partner));
        }
      }
    }
  }

  /// State latches set on one switching region and reset on another.
  void state_latches(std::size_t max_pairs) {
    const std::vector<DynBitset> region = all_switching_regions(sg_);
    std::vector<std::size_t> occupied;
    for (std::size_t e = 0; e < region.size(); ++e)
      if (region[e].any()) occupied.push_back(e);
    std::size_t pairs = 0;
    for (const std::size_t e1 : occupied) {
      for (const std::size_t e2 : occupied) {
        if (e1 == e2 || pairs++ >= max_pairs) continue;
        compare(
            "plan_state_latch " + std::to_string(e1) + "/" +
                std::to_string(e2),
            [&] {
              return planner_.plan_state_latch(region[e1], region[e2]);
            },
            reference_plan_state_latch(sg_, region[e1], region[e2]));
      }
    }
  }

 private:
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    for (const auto& sig : sg_.signals()) out.push_back(sig.name);
    return out;
  }

  const StateGraph& sg_;
  InsertionPlanner planner_;
  std::string label_;
  Tally* tally_;
  std::optional<PreviewCheck> preview_;  ///< when the preconditions hold
};

void check_graph(const StateGraph& sg, const std::string& label,
                 Tally* tally) {
  PlannerCheck check(sg, label, tally);
  if (check_csc(sg)) check.divisors();
  check.state_latches(64);
}

TEST(InsertionOracle, CorpusAndItsMapRevisions) {
  Tally tally;
  for (const auto& entry : bench::table1_suite()) {
    // The corpus SG as specified (CSC conflicts included): state latches.
    check_graph(entry.stg.to_state_graph(), entry.name, &tally);

    // The map stage's input and every revision the i=2 mapping commits,
    // replayed step by step from the committed divisors.
    Spec spec;
    spec.name = entry.name;
    spec.format = SpecFormat::kG;
    spec.stg = entry.stg;
    FlowOptions front;
    front.stop_after = Stage::kCsc;
    Flow flow(front);
    ASSERT_TRUE(flow.run_spec(spec).ok) << entry.name;
    StateGraph revision = *flow.context().sg;
    revision.prune_unreachable();
    MapperOptions opts;
    opts.library.max_literals = 2;
    const MapResult mapped = technology_map(revision, opts);
    ASSERT_TRUE(mapped.implementable) << entry.name;
    check_graph(revision, entry.name + "/r0", &tally);
    for (std::size_t i = 0; i < mapped.steps.size(); ++i) {
      const MapStep& step = mapped.steps[i];
      InsertionPlanner planner(revision);
      const auto plan = step.latch
                            ? planner.plan_latch(step.divisor,
                                                 step.divisor_reset)
                            : planner.plan(step.divisor);
      ASSERT_TRUE(plan) << entry.name << " step " << i;
      revision = insert_signal(revision, *plan, step.new_signal);
      check_graph(revision, entry.name + "/r" + std::to_string(i + 1),
                  &tally);
    }
    EXPECT_EQ(revision.num_states(), mapped.sg->num_states()) << entry.name;
    EXPECT_EQ(revision.num_signals(), mapped.sg->num_signals())
        << entry.name;
  }
  EXPECT_GT(tally.planned, 0);
  EXPECT_GT(tally.growth_failed, 0);
  EXPECT_GT(tally.cross_failed, 0);
  EXPECT_GT(tally.verified, 0);
  EXPECT_GT(tally.csc_failed, 0);
  EXPECT_GT(tally.si_failed, 0);
}

TEST(InsertionOracle, GeneratorFamiliesAndRandomStgs) {
  Tally tally;
  const struct {
    const char* name;
    Stg stg;
  } families[] = {
      {"pipeline3", bench::make_pipeline(3)},
      {"parallelizer4", bench::make_parallelizer(4)},
      {"seq_chain4", bench::make_seq_chain(4)},
      {"choice_mixer2", bench::make_choice_mixer(2)},
      {"shared_out2", bench::make_shared_out(2)},
      {"combo3x3", bench::make_combo(3, 3)},
      {"hazard", bench::make_hazard()},
      {"csc_ring3", bench::make_csc_ring(3)},
      {"csc_diamond_ring3x2", bench::make_csc_diamond_ring(3, 2)},
  };
  for (const auto& family : families)
    check_graph(family.stg.to_state_graph(), family.name, &tally);
  for (std::uint64_t seed = 1; seed <= 24; ++seed)
    check_graph(bench::make_random_stg(seed).to_state_graph(),
                "random" + std::to_string(seed), &tally);
  EXPECT_GT(tally.planned, 0);
  EXPECT_GT(tally.growth_failed, 0);
  EXPECT_GT(tally.verified, 0);
  EXPECT_GT(tally.csc_failed, 0);
  EXPECT_GT(tally.si_failed, 0);
}

}  // namespace
}  // namespace sitm
