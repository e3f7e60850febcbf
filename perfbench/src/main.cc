// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <net_hot|net_cold|lib_query> --seed <n>
//             --seconds <s> --trace <0|1> [--data-dir <dir>]
//
// Prints one human-readable line per metric (name, value, unit, sample
// count), then, as its last line, one JSON object with every metric the
// run measured, the outcome tally and the reasons (if any) the run does
// not count. Exits 1 when any request or reload failed. perfbench/run.py builds this program and turns that line
// into the benchmark's result.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<net_hot|net_cold|lib_query> --seed <n> --seconds <s> "
               "--trace <0|1> [--data-dir <dir>]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("every flag takes a value");
    const std::string flag = argv[i];
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

// Metric values are printed with every digit a double holds.
void PrintJson(const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              report.tally.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.tally.attempted),
              static_cast<unsigned long long>(report.tally.failed()));
  std::printf("\"invalid\": [");
  for (size_t i = 0; i < report.invalid.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", report.invalid[i].c_str());
  }
  std::printf("], \"metrics\": {");
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                "\"samples\": %zu}",
                i ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str(),
                m.samples);
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = Parse(argc, argv);
  Report (*run)(const Args&) = nullptr;
  if (args.workload == "net_hot") {
    run = RunNetHot;
  } else if (args.workload == "net_cold") {
    run = RunNetCold;
  } else if (args.workload == "lib_query") {
    run = RunLibQuery;
  } else {
    Usage("unknown workload");
  }
  const bool net = args.workload != "lib_query";
  std::printf("perfbench %s seed %llu, %.3g s, trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  // CPU placement applies on machines with at least 4 CPUs (CpuPin).
  if (net) {
    std::printf("threads: build %d on CPUs %d-%d; engine workers %d and "
                "shard fan-out pool (one per hardware thread) on CPUs %d-%d; "
                "client sender + receiver, 1 query connection at a time + 1 "
                "admin connection, on CPU %d; hardware %u\n",
                kBuildThreads, kServerCpu, kServerCpu + kServerCpus - 1,
                kEngineWorkers, kServerCpu, kServerCpu + kServerCpus - 1,
                kSendCpu, std::thread::hardware_concurrency());
  } else {
    std::printf("threads: build %d on CPUs %d-%d; 1 query thread on CPU %d "
                "(traced run adds engine workers %d and 1 connection); "
                "hardware %u\n",
                kBuildThreads, kServerCpu, kServerCpu + kServerCpus - 1,
                kLibCpu, kEngineWorkers, std::thread::hardware_concurrency());
  }
  std::fflush(stdout);

  Report report = run(args);
  const double attempted =
      static_cast<double>(std::max<uint64_t>(report.tally.attempted, 1));
  report.Add("err_pct",
             100.0 * static_cast<double>(report.tally.failed()) / attempted,
             "%", report.tally.attempted);

  for (const Metric& m : report.metrics) {
    if (m.samples > 0) {
      std::printf("  %-26s %14.4f %-8s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-26s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("  attempted %llu, ok %llu, shed %llu, wrong %llu, errors %llu\n",
              static_cast<unsigned long long>(report.tally.attempted),
              static_cast<unsigned long long>(report.tally.ok),
              static_cast<unsigned long long>(report.tally.shed),
              static_cast<unsigned long long>(report.tally.wrong),
              static_cast<unsigned long long>(report.tally.errors));
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const std::string& why : report.invalid) {
    std::printf("  INVALID RUN: %s\n", why.c_str());
  }
  PrintJson(report);
  // A shed, failed or wrong answer, a failed reload or a broken connection
  // each fail the run.
  return report.tally.failed() == 0 ? 0 : 1;
}
