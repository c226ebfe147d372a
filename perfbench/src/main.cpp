// sitm benchmark program.
//
//   sitm_perfbench --workload table1|csc_rings|serve_mix --seed N
//                  --seconds S --trace 0|1 --root DIR [--spans-dir DIR]
//                  [--reduced] [--write-golden PATH]
//
// Prints informational lines prefixed with "# ", then, as the last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// perfbench/run.py builds this program and runs it; see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"

namespace {

using perfbench::Args;

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s = brand;
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto take = [&]() -> const char* {
      ++i;
      return v;
    };
    if (arg == "--reduced") {
      a->reduced = true;
    } else if (!v) {
      return false;
    } else if (arg == "--workload") {
      a->workload = take();
    } else if (arg == "--seed") {
      a->seed = std::strtoull(take(), nullptr, 10);
    } else if (arg == "--seconds") {
      a->seconds = std::strtod(take(), nullptr);
    } else if (arg == "--trace") {
      a->trace = std::strcmp(take(), "0") != 0;
    } else if (arg == "--root") {
      a->root = take();
    } else if (arg == "--spans-dir") {
      a->spans_dir = take();
    } else if (arg == "--write-golden") {
      a->write_golden = take();
    } else {
      return false;
    }
  }
  return a->seconds > 0 && (!a->workload.empty() || !a->write_golden.empty());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload table1|csc_rings|serve_mix --seed N "
                 "--seconds S --trace 0|1 --root DIR [--spans-dir DIR] "
                 "[--reduced] [--write-golden PATH]\n",
                 argv[0]);
    return 2;
  }
  try {
    if (!args.write_golden.empty())
      return perfbench::write_table1_golden(args);

    perfbench::RunResult r;
    if (args.workload == "table1") {
      r = perfbench::run_table1(args);
    } else if (args.workload == "csc_rings") {
      r = perfbench::run_csc_rings(args);
    } else if (args.workload == "serve_mix") {
      r = perfbench::run_serve_mix(args);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
      return 2;
    }
    if (!args.trace) {
      const double ok = static_cast<double>(r.attempted - r.failed);
      r.metrics.set("ok_share", ok / static_cast<double>(r.attempted),
                    "ratio");
      r.metrics.set("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
    }

    std::printf("# workload=%s seed=%llu seconds=%g trace=%d reduced=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, args.reduced ? 1 : 0);
    std::printf("# host nproc=%u cpu=\"%s\" build=%s\n",
                std::thread::hardware_concurrency(), cpu_model().c_str(),
                PERFBENCH_BUILD_TYPE);
    for (const std::string& line : r.notes)
      std::printf("# %s\n", line.c_str());
    std::printf(
        "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
        "\"metrics\": %s}\n",
        r.correct && r.failed == 0 ? "true" : "false", r.attempted, r.failed,
        r.metrics.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
