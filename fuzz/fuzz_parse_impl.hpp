#pragma once
// Shared fuzz entry over the specification front door: one function,
// `sitm::fuzz::fuzz_one`, used by three drivers —
//   * fuzz/fuzz_parse.cpp as a libFuzzer target (clang, -fsanitize=fuzzer),
//   * fuzz/fuzz_parse.cpp's standalone fallback driver (any compiler),
//   * tests/fuzz_flow_test.cpp replaying fuzz/corpus/ as a deterministic
//     regression suite in tier-1.
//
// Input shape: byte 0 selects the mode, the rest is the spec text.
//   mode 0  parse as astg ".g"
//   mode 1  parse as explicit ".sg"
//   mode 2  auto-sniff, then run the sitm-lint diagnostics on the result
//   mode 3  full front half of the flow (parse -> lint gate ->
//           reachability) under a tight deterministic RunGuard
//   mode 4  full synthesis flow with the output-side check stage on
//           (parse -> ... -> map -> nlint + equivalence) under a
//           tight deterministic RunGuard
// The digits '0'..'4' map onto modes 0..4, so checked-in corpus entries
// can spell their mode readably in the first byte.
//
// Contract under fuzzing: malformed input must be rejected with the typed
// sitm::Error taxonomy (or captured into a failed FlowReport).  Any OTHER
// escape — std::length_error, std::bad_alloc from an absurd reserve,
// sanitizer report, crash — is a finding; fixed findings get their input
// checked into fuzz/corpus/ so tier-1 replays them forever.

#include <cstddef>
#include <cstdint>
#include <string>

#include "flow/flow.hpp"
#include "stg/lint.hpp"
#include "stg/load.hpp"
#include "util/error.hpp"

namespace sitm::fuzz {

/// Inputs past this size only probe the allocator, not the parsers.
inline constexpr std::size_t kMaxInput = std::size_t{64} << 10;

inline int fuzz_one(const std::uint8_t* data, std::size_t size) {
  if (size == 0 || size > kMaxInput) return 0;
  // Digits keep their face value so corpus entries stay readable (and so
  // adding a mode never silently re-tags the existing corpus).
  const std::uint8_t tag = data[0];
  const int mode =
      (tag >= '0' && tag <= '9') ? (tag - '0') % 5 : tag % 5;
  const std::string text(reinterpret_cast<const char*>(data) + 1, size - 1);
  try {
    switch (mode) {
      case 0:
        (void)load_spec_string(text, SpecFormat::kG, "fuzz.g");
        break;
      case 1:
        (void)load_spec_string(text, SpecFormat::kSg, "fuzz.sg");
        break;
      case 2: {
        const Spec spec = load_spec_string(text);
        (void)lint_spec(spec);
        break;
      }
      case 3: {
        FlowOptions opts;
        opts.lint = true;
        opts.stop_after = Stage::kReachability;
        opts.max_states = 4096;
        opts.work_budget = std::uint64_t{1} << 20;
        Flow flow(opts);
        (void)flow.run_string(text);  // failures are captured, typed
        break;
      }
      case 4: {
        // The whole pipeline plus the output-side gate: whatever netlist
        // synthesis produces from a hostile spec, nlint and the
        // equivalence checker must digest it without escaping the taxonomy.
        FlowOptions opts;
        opts.lint = true;
        opts.check = true;
        opts.max_states = 512;
        opts.work_budget = std::uint64_t{1} << 18;
        Flow flow(opts);
        (void)flow.run_string(text);  // failures are captured, typed
        break;
      }
    }
  } catch (const Error&) {
    // The typed rejection path: expected for malformed input.
  }
  return 0;
}

}  // namespace sitm::fuzz
