// e2e_pipeline: end-to-end benchmark of a live hpcmon MonitoringStack.
//
//   e2e_pipeline --workload <ingest_10k|live_1k> --seed <n> --seconds <s>
//                --trace <0|1> --workdir <dir>
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer ledger. Exits 1 when a
// correctness oracle fails or a metric cannot be measured, 2 on bad usage.
// See README.md for every metric.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: e2e_pipeline --workload <ingest_10k|live_1k> "
               "--seed <n> --seconds <s> --trace <0|1> --workdir <dir>\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0)) {
        return usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("every flag takes a value");
  if (args.workload.empty() || args.workdir.empty() || !have_trace) {
    return usage("--workload, --trace and --workdir are required");
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) return usage("cannot create --workdir");

  e2e::RunOutcome out;
  if (args.workload == "ingest_10k") {
    out = e2e::run_ingest_10k(args);
  } else if (args.workload == "live_1k") {
    out = e2e::run_live_1k(args);
  } else {
    return usage("unknown workload");
  }
  if (out.metrics.rejected() != 0) {
    out.fail_oracle(std::to_string(out.metrics.rejected()) +
                    " metric(s) were malformed or not finite");
  }
  if (!out.correct) {
    for (const auto& e : out.errors) std::fprintf(stderr, "FAILED: %s\n", e.c_str());
    return 1;
  }
  std::printf("%s\n", out.metrics.json(true, out.ops.attempted(), out.ops.failed()).c_str());
  return 0;
}
