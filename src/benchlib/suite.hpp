#pragma once
// The named benchmark suite: the 32 circuits of Table 1.
//
// The original SIS/petrify .g files are not redistributable here, so each
// name is mapped to a reconstructed STG of the same structural family and
// size class (the `kSuite` family table in suite.cpp).  Absolute literal
// counts therefore differ from the published table; the qualitative shape
// (which circuits need large gates, which are mappable at i = 2, the
// SI-vs-non-SI cost ratio) is what the benches reproduce.

#include <string>
#include <vector>

#include "stg/stg.hpp"

namespace sitm {
namespace bench {

struct SuiteEntry {
  std::string name;     ///< benchmark name as in Table 1
  std::string family;   ///< generator family and parameters
  Stg stg;
};

/// All 32 Table-1 benchmarks in publication order.
std::vector<SuiteEntry> table1_suite();

/// One benchmark by name; throws sitm::Error for unknown names.
SuiteEntry suite_benchmark(const std::string& name);

/// The list of benchmark names in publication order.
std::vector<std::string> suite_names();

}  // namespace bench
}  // namespace sitm
