#pragma once
// The option table: one row per FlowOptions setting, the one declaration
// that FlowOptions::fingerprint(), serve's "options" keys and the CLI's flow
// flags (and their usage lines) are derived from.  A row's role is
//   output         the setting can change what a run produces (results,
//                  reported metrics, which outputs exist): the fingerprint
//                  hashes it, in table order (a path row hashes only
//                  whether the path is set, not where it points);
//   observational  it cannot (deadlines, the pre-parse input format), so a
//                  change must still hit the serve cache.
// To add a knob, add its field and a row in options.cpp; the
// OptionsFingerprint tests fail until every field has a row whose role
// matches its effect on the fingerprint.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace sitm {

struct FlowOptions;
class StableHasher;

/// Value kinds, derived from the field's C++ type.
enum class OptionKind {
  kInt,        ///< int >= min
  kCount,      ///< unsigned count >= min (exact doubles, <= 2^53)
  kBool,
  kMs,         ///< milliseconds >= 0 (0 = none)
  kChoice,     ///< one of the row's choice names (an enum)
  kStage,      ///< one stage name
  kStageList,  ///< array of stage names, added to the set
  kPath,       ///< output file path
};

enum class OptionRole { kOutput, kObservational };

struct OptionRow {
  /// Member path in FlowOptions ("mapper.library.max_literals").
  const char* field;
  OptionKind kind;
  /// kChoice: names indexed by enum value, null-terminated.
  const char* const* choices;
  /// Validate `v` (messages name `what`) and store it in the field.
  void (*store)(FlowOptions&, const Json& v, const OptionRow&,
                const char* what);
  /// Feed the field's value to the fingerprint.
  void (*hash)(const FlowOptions&, StableHasher&);
  OptionRole role = OptionRole::kOutput;
  /// Serve "options" key; nullptr = not settable by requests.
  const char* key = nullptr;
  /// CLI spellings; null = none.  A bool flag takes no argument and sets
  /// true, or false when spelled "--no-...".
  std::array<const char*, 2> flags{};
  /// Lower bound of kInt and kCount values.
  int min = 0;

  void set(FlowOptions& flow, const Json& v, const char* what) const {
    store(flow, v, *this, what);
  }
  /// The JSON value a command-line spelling stands for: bool flags take no
  /// argument, numbers parse as JSON numbers, a stage list wraps its one
  /// argument in an array, everything else is the argument string.
  Json cli_value(std::string_view flag, const char* arg) const;
};

std::span<const OptionRow> option_table();
/// Row lookups; nullptr when nothing matches.
const OptionRow* option_by_key(std::string_view key);
const OptionRow* option_by_flag(std::string_view flag);
const OptionRow* option_by_field(std::string_view field);

/// A command-line argument as JSON: the parsed value when it is a JSON
/// document (so "-1" is the number -1), otherwise the string itself.
Json cli_json(const char* arg);

/// Strict readers, the only validators of option and request values: a
/// wrong-typed or out-of-range value throws sitm::Error naming `what`,
/// instead of being coerced, so a typo'd option never silently misses the
/// cache.
double want_number(const Json& j, const char* what);
int want_int(const Json& j, const char* what, int min);
std::uint64_t want_count(const Json& j, const char* what,
                         std::uint64_t min = 0);
double want_ms(const Json& j, const char* what);
const std::string& want_string(const Json& j, const char* what);

}  // namespace sitm
