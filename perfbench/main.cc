// perfbench: the repository's end-to-end benchmark (see README.md here).
//
//   perfbench --workload <oltp_wire|analytic|analytic_parallel>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--inject-wrong-row]
//
// Prints the run configuration, then (traced runs) a span summary, and as
// its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Exits 1 when any result check failed, 2 on bad arguments,
// 3 when set-up failed.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench.h"
#include "spans.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<oltp_wire|analytic|analytic_parallel> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--inject-wrong-row]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  opts.out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atoi(value().c_str());
    } else if (arg == "--trace") {
      opts.trace = value() == "1";
    } else if (arg == "--out-dir") {
      opts.out_dir = value();
    } else if (arg == "--inject-wrong-row") {
      opts.inject_wrong_row = true;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (opts.seconds < 1) return Usage("--seconds must be >= 1");
  if (opts.workload != "oltp_wire" && opts.workload != "analytic" &&
      opts.workload != "analytic_parallel") {
    return Usage("unknown workload");
  }
  mkdir(opts.out_dir.c_str(), 0755);
  opts.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  if (opts.nproc < 1) opts.nproc = 1;

  perfbench::Report report;
  report.ConfigNum("seed", static_cast<double>(opts.seed));
  report.ConfigNum("seconds", opts.seconds);
  report.ConfigNum("trace", opts.trace ? 1 : 0);
  report.ConfigNum("nproc", opts.nproc);
  report.Config("build_type", "\"" PERFBENCH_BUILD_TYPE "\"");
  report.Config("lock_rank", PERFBENCH_LOCK_RANK ? "true" : "false");
  report.Config("telemetry", PERFBENCH_TELEMETRY ? "true" : "false");
  std::printf("perfbench: workload %s, seed %llu, %d s, trace %d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  std::fflush(stdout);

  if (opts.workload == "oltp_wire") {
    perfbench::RunOltpWire(opts, &report);
  } else {
    perfbench::RunAnalytic(opts, opts.workload == "analytic_parallel",
                           &report);
  }
  if (report.failed > 0) report.correct = false;

  const std::string span_file = perfbench::WriteRunFiles(opts, report);
  std::printf("config %s\n", report.ConfigJson().c_str());
  if (opts.trace) {
    std::printf("spans (%llu recorded, written to %s):\n",
                static_cast<unsigned long long>(perfbench::spans::Recorded()),
                span_file.empty() ? "nowhere" : span_file.c_str());
    std::printf("  %-28s %10s %12s %12s\n", "span", "count", "mean_us",
                "self_us");
    for (const auto& [name, t] : perfbench::spans::Summarize()) {
      std::printf("  %-28s %10llu %12.2f %12.2f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.mean_us(),
                  t.mean_self_us());
    }
  }
  std::printf("%s\n", report.ResultJson().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
