// Reproduction of Table 1 (paper Section 4).
//
// For every benchmark of the suite it prints:
//   * the complexity profile of the circuit before decomposition
//     (# gates with n literals, n = 2..7+ — the first column group);
//   * the number of signals inserted by the technology mapper for libraries
//     with at most i = 2, 3, 4 literals per gate ("n.i." when the mapper
//     gives up — the second column group);
//   * mapping wall-clock time at i = 2.
//
// The benchmark STGs are reconstructed equivalents of the historical suite
// (the `kSuite` family table in src/benchlib/suite.cpp maps each name to its
// generator), so absolute values differ from the publication; the
// qualitative shape — high-fanin circuits (vbe10b, pe-send-ifc, tsend-bm,
// mr0) needing several insertions, most circuits mappable even at i = 2 —
// is the reproduction target.

#include <cstdio>
#include <vector>

#include "bench/table_common.hpp"
#include "benchlib/suite.hpp"
#include "core/mapper.hpp"
#include "core/mc_cover.hpp"
#include "stg/stg.hpp"

using namespace sitm;
using namespace sitm::bench;

int main() {
  std::printf("Table 1: technology mapping of the benchmark suite\n");
  std::printf("(reconstructed STGs; family mapping: kSuite in "
              "src/benchlib/suite.cpp)\n\n");
  std::printf("%-16s %-18s %6s | %-24s | %-17s | %8s\n", "circuit", "family",
              "states", "# gates with n literals", "signals inserted",
              "time i=2");
  std::printf("%-16s %-18s %6s | %3s %3s %3s %3s %3s %3s | %5s %5s %5s | %8s\n",
              "", "", "", "n=2", "3", "4", "5", "6", "7+", "i=2", "i=3", "i=4",
              "[ms]");
  std::printf("%s\n", std::string(106, '-').c_str());

  int solved[3] = {0, 0, 0};
  int total = 0;
  for (auto& entry : table1_suite()) {
    const StateGraph sg = entry.stg.to_state_graph();
    const Netlist before = synthesize_all(sg);
    auto hist = before.complexity_histogram();
    // Fold everything above 7 into the 7+ bucket.
    int bucket7 = 0;
    for (std::size_t n = 7; n < hist.size(); ++n) bucket7 += hist[n];

    std::string cells[3];
    double ms2 = 0.0;
    for (int idx = 0; idx < 3; ++idx) {
      MapperOptions opts;
      opts.library.max_literals = 2 + idx;
      Stopwatch watch;
      const MapResult result = technology_map(sg, opts);
      if (idx == 0) ms2 = watch.ms();
      cells[idx] = insertions_cell(result);
      if (result.implementable) ++solved[idx];
    }
    ++total;

    std::printf(
        "%-16s %-18s %6zu | %3s %3s %3s %3s %3s %3s | %5s %5s %5s | %8.1f\n",
        entry.name.c_str(), entry.family.c_str(), sg.num_states(),
        hist_cell(hist, 2).c_str(), hist_cell(hist, 3).c_str(),
        hist_cell(hist, 4).c_str(), hist_cell(hist, 5).c_str(),
        hist_cell(hist, 6).c_str(), (bucket7 ? std::to_string(bucket7) : "").c_str(),
        cells[0].c_str(), cells[1].c_str(), cells[2].c_str(), ms2);
  }
  std::printf("%s\n", std::string(106, '-').c_str());
  std::printf("implementable: i=2: %d/%d   i=3: %d/%d   i=4: %d/%d\n",
              solved[0], total, solved[1], total, solved[2], total);
  std::printf("(paper: 26/32 at i=2; all but 3 gates across 2 circuits at "
              "i=4)\n");
  return 0;
}
