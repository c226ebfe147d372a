#include "flow/options.hpp"

#include <bit>
#include <cmath>
#include <type_traits>
#include <utility>

#include "flow/flow.hpp"
#include "stg/canon.hpp"
#include "util/error.hpp"

namespace sitm {

double want_number(const Json& j, const char* what) {
  if (j.kind() != Json::Kind::kNumber)
    throw Error(std::string(what) + " must be a number");
  return j.number();
}

namespace {

/// An integer in [min, max].  Range-checked BEFORE casting: float-to-int
/// conversion of an out-of-range double is undefined behaviour, and
/// requests and arguments are untrusted ({"priority":1e20} must be an
/// error, not UB).
std::int64_t want_integer(const Json& j, const char* what, std::int64_t min,
                          double max) {
  const double d = want_number(j, what);
  if (!(d >= static_cast<double>(min) && d <= max) || d != std::floor(d))
    throw Error(std::string(what) + " must be an integer >= " +
                std::to_string(min));
  return static_cast<std::int64_t>(d);
}

bool want_bool(const Json& j, const char* what) {
  if (j.kind() != Json::Kind::kBool)
    throw Error(std::string(what) + " must be a boolean");
  return j.bool_value();
}

Stage want_stage(const Json& j, const char* what) {
  const std::string& name = want_string(j, what);
  const auto stage = parse_stage(name);
  if (!stage) throw Error(std::string(what) + ": unknown stage " + name);
  return *stage;
}

int want_choice(const Json& j, const char* what, const char* const* names) {
  const std::string& name = want_string(j, what);
  std::string all;
  for (int i = 0; names[i]; ++i) {
    if (name == names[i]) return i;
    all += i ? "|" : "";
    all += names[i];
  }
  throw Error(std::string(what) + " wants " + all);
}

constexpr const char* kArchitectureNames[] = {"auto", "standard-c",
                                              "complex-gate", nullptr};
constexpr const char* kOnBudgetNames[] = {"fail", "degrade", nullptr};
constexpr const char* kFormatNames[] = {"auto", "g", "sg", nullptr};

constexpr const char* const* choices_of(Architecture) {
  return kArchitectureNames;
}
constexpr const char* const* choices_of(FlowOptions::OnBudget) {
  return kOnBudgetNames;
}
constexpr const char* const* choices_of(SpecFormat) { return kFormatNames; }

using StageSet = std::array<bool, kNumStages>;

// The field's C++ type decides its kind, its reader and how it hashes.
template <class T>
constexpr OptionKind kind_of() {
  if constexpr (std::is_same_v<T, bool>) return OptionKind::kBool;
  else if constexpr (std::is_same_v<T, int>) return OptionKind::kInt;
  else if constexpr (std::is_integral_v<T>) return OptionKind::kCount;
  else if constexpr (std::is_same_v<T, double>) return OptionKind::kMs;
  else if constexpr (std::is_enum_v<T>) return OptionKind::kChoice;
  else if constexpr (std::is_same_v<T, std::optional<Stage>>)
    return OptionKind::kStage;
  else if constexpr (std::is_same_v<T, StageSet>) return OptionKind::kStageList;
  else {
    static_assert(std::is_same_v<T, std::string>, "no option kind for T");
    return OptionKind::kPath;
  }
}

template <class T>
void read(const Json& v, const OptionRow& row, const char* what, T& f) {
  if constexpr (std::is_same_v<T, bool>) f = want_bool(v, what);
  else if constexpr (std::is_same_v<T, int>) f = want_int(v, what, row.min);
  else if constexpr (std::is_integral_v<T>)
    f = static_cast<T>(want_count(v, what, static_cast<unsigned>(row.min)));
  else if constexpr (std::is_same_v<T, double>) f = want_ms(v, what);
  else if constexpr (std::is_enum_v<T>)
    f = static_cast<T>(want_choice(v, what, row.choices));
  else if constexpr (std::is_same_v<T, std::optional<Stage>>)
    f = want_stage(v, what);
  else if constexpr (std::is_same_v<T, std::string>) f = want_string(v, what);
  else if (v.kind() != Json::Kind::kArray)
    throw Error(std::string(what) + " must be an array of stage names");
  else
    for (const Json& s : v.items())
      f[static_cast<std::size_t>(want_stage(s, what))] = true;
}

template <class T>
void hash_value(StableHasher& h, const T& v) {
  if constexpr (std::is_same_v<T, bool>) h.boolean(v);
  else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>)
    h.i64(static_cast<std::int64_t>(v));
  else if constexpr (std::is_same_v<T, double>)
    h.u64(std::bit_cast<std::uint64_t>(v));
  else if constexpr (std::is_same_v<T, std::optional<Stage>>)
    h.i64(v ? static_cast<int>(*v) : -1);
  else if constexpr (std::is_same_v<T, std::string>)
    h.boolean(!v.empty());  // which outputs exist, not where they go
  else
    for (bool b : v) h.boolean(b);
}

/// Typed access to the field `Get` selects; a store also copies the new
/// value into every `Mirrors` field.
template <class Get, class... Mirrors>
struct Access {
  using T = std::remove_cvref_t<decltype(Get{}(std::declval<FlowOptions&>()))>;
  static constexpr OptionKind kind = kind_of<T>();
  static constexpr const char* const* choices() {
    if constexpr (std::is_enum_v<T>) return choices_of(T{});
    else return nullptr;
  }
  static void store(FlowOptions& o, const Json& v, const OptionRow& row,
                    const char* what) {
    T& f = Get{}(o);
    read(v, row, what, f);
    ((Mirrors{}(o) = f), ...);
  }
  static void hash(const FlowOptions& o, StableHasher& h) {
    hash_value(h, Get{}(o));
  }
};

#define SITM_REF(path) decltype([](auto& o) -> auto& { return o.path; })
#define SITM_ACCESS(name, A)                                          \
  .field = name, .kind = A::kind, .choices = A::choices(),            \
  .store = &A::store, .hash = &A::hash
/// Row head for the FlowOptions member `path`.
#define SITM_FIELD(path) SITM_ACCESS(#path, Access<SITM_REF(path)>)

// The synth stage's pass count is also the mapper's: the map stage reuses
// the synth stage's syntheses (and builds its netlist) only when both agree.
using MinimizePasses =
    Access<SITM_REF(mc.minimize_passes), SITM_REF(mapper.mc.minimize_passes)>;

constexpr OptionRole kObservational = OptionRole::kObservational;

// Thread counts are output rows: results are bit-identical across them,
// but stage reports record them as metrics, and a cached report must not
// misreport.  Table order is fingerprint order.
constexpr OptionRow kTable[] = {
    // synth stage.
    {SITM_ACCESS("mc.minimize_passes", MinimizePasses),
     .key = "minimize_passes", .min = 1},
    {SITM_FIELD(mc.architecture)},
    {SITM_FIELD(mc.threads), .key = "synth_threads",
     .flags = {"--synth-threads"}},
    // csc stage.
    {SITM_FIELD(csc.max_insertions), .key = "csc_max_insertions", .min = 1},
    {SITM_FIELD(csc.max_candidates)},
    {SITM_FIELD(csc.rank_top_k), .key = "csc_top_k", .flags = {"--csc-top-k"}},
    // map stage (nested synth options included: the mapper resynthesizes).
    {SITM_FIELD(mapper.library.max_literals), .key = "max_literals",
     .flags = {"-i"}, .min = 1},
    {SITM_FIELD(mapper.mc.minimize_passes), .min = 1},
    {SITM_FIELD(mapper.mc.architecture)},
    {SITM_FIELD(mapper.mc.threads)},
    {SITM_FIELD(mapper.use_progress_filters)},
    {SITM_FIELD(mapper.global_acknowledgement)},
    {SITM_FIELD(mapper.max_insertions)},
    {SITM_FIELD(mapper.max_full_evals)},
    {SITM_FIELD(mapper.threads), .key = "map_threads",
     .flags = {"--map-threads"}},
    // Gates: each decides whether a run fails, and its knobs change the
    // stage's metrics and warnings.
    {SITM_FIELD(verify_max_states)},
    {SITM_FIELD(lint), .key = "lint", .flags = {"--lint", "--no-lint"}},
    {SITM_FIELD(check), .key = "check", .flags = {"--check", "--no-check"}},
    {SITM_FIELD(check_opts.nlint.max_gc_fanin), .key = "max_gc_fanin",
     .flags = {"--max-fanin"}},
    // Deterministic resource limits change which outcome a run settles on.
    {SITM_FIELD(max_states), .key = "max_states", .flags = {"--max-states"}},
    {SITM_FIELD(work_budget), .key = "work_budget", .flags = {"--work-budget"}},
    {SITM_FIELD(on_budget), .key = "on_budget", .flags = {"--on-budget"}},
    // Flow shape and outputs.
    {SITM_FIELD(stop_after), .key = "stop_after", .flags = {"--stop-after"}},
    {SITM_FIELD(skip), .key = "skip", .flags = {"--skip"}},
    {SITM_FIELD(emit_sg_path), .flags = {"-o"}},
    {SITM_FIELD(emit_verilog_path), .flags = {"--verilog"}},
    {SITM_FIELD(emit_eqn_path), .flags = {"--eqn"}},
    {SITM_FIELD(capture_emitted)},
    // Observational: the spec hash is post-parse, and whether a run had
    // 5 ms or 5 s does not change what a successful run produces.
    {SITM_FIELD(format), .role = kObservational},
    {SITM_FIELD(deadline_ms), .role = kObservational,
     .flags = {"--deadline-ms"}},
};

#undef SITM_FIELD
#undef SITM_ACCESS
#undef SITM_REF

}  // namespace

int want_int(const Json& j, const char* what, int min) {
  return static_cast<int>(want_integer(j, what, min, 2147483647.0));
}

std::uint64_t want_count(const Json& j, const char* what, std::uint64_t min) {
  // 2^53: larger doubles are not exact integers.
  return static_cast<std::uint64_t>(want_integer(
      j, what, static_cast<std::int64_t>(min), 9007199254740992.0));
}

double want_ms(const Json& j, const char* what) {
  const double d = want_number(j, what);
  if (!(d >= 0 && d <= 1e15))  // also rejects NaN
    throw Error(std::string(what) + " must be milliseconds >= 0");
  return d;
}

const std::string& want_string(const Json& j, const char* what) {
  if (j.kind() != Json::Kind::kString)
    throw Error(std::string(what) + " must be a string");
  return j.string_value();
}

Json cli_json(const char* arg) {
  try {
    return Json::parse(arg);
  } catch (const Error&) {
    return Json(arg);
  }
}

Json OptionRow::cli_value(std::string_view flag, const char* arg) const {
  switch (kind) {
    case OptionKind::kBool:
      return Json(!flag.starts_with("--no-"));
    case OptionKind::kInt:
    case OptionKind::kCount:
    case OptionKind::kMs:
      return cli_json(arg);
    case OptionKind::kStageList: {
      Json list = Json::array();
      list.push(Json(arg));
      return list;
    }
    default:
      return Json(arg);
  }
}

std::span<const OptionRow> option_table() { return kTable; }

const OptionRow* option_by_key(std::string_view key) {
  for (const OptionRow& row : kTable)
    if (row.key && key == row.key) return &row;
  return nullptr;
}

const OptionRow* option_by_flag(std::string_view flag) {
  for (const OptionRow& row : kTable)
    for (const char* spelling : row.flags)
      if (spelling && flag == spelling) return &row;
  return nullptr;
}

const OptionRow* option_by_field(std::string_view field) {
  for (const OptionRow& row : kTable)
    if (field == row.field) return &row;
  return nullptr;
}

}  // namespace sitm
