// qosbench: one named workload per process, metrics by name with units.
//
//   qosbench --workload <fig3|city_serial|city_windowed|city_sharded|
//                        city_observed>
//            --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// Prints the machine fingerprint and calibration first, then informational
// lines, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). A traced run also writes the benchmark's own spans to
// <out>/spans-<workload>-<seed>.json.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "qosbench: " << why
            << "\nusage: qosbench --workload <fig3|city_serial|city_windowed|"
               "city_sharded|city_observed> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  qosbench::Options options;
  bool haveSeed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage("bad --seed");
      haveSeed = true;
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0)) {
        return usage("bad --seconds");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      options.trace = value == "1";
    } else if (key == "--out") {
      options.outDir = value;
    } else {
      return usage("unknown argument");
    }
  }
  if (argc % 2 != 1) return usage("arguments come in pairs");
  if (!haveSeed) return usage("--seed is required");

  std::cout << "machine: " << qosbench::machineFingerprint() << '\n';
  const double calibMs = qosbench::calibrationMs();
  std::cout << "machine.calib_ms: " << calibMs << '\n';

  qosbench::BenchSpans spans;
  qosbench::Result result;
  try {
    if (options.workload == "fig3") {
      result = qosbench::runFig3(options, spans);
    } else if (options.workload == "city_serial" ||
               options.workload == "city_windowed" ||
               options.workload == "city_sharded" ||
               options.workload == "city_observed") {
      result = qosbench::runCity(options, spans);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::cerr << "qosbench: " << options.workload << " aborted: " << e.what()
              << '\n';
    return 1;
  }
  result.layer("machine.calib_ms", calibMs, "ms");
  if (options.trace) {
    const std::string path = options.outDir + "/spans-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    if (!spans.write(path)) {
      std::cerr << "qosbench: cannot write " << path << '\n';
      return 1;
    }
    std::cout << "spans: " << spans.size() << " benchmark spans in " << path
              << '\n';
  }
  std::cout << result.json(options.trace) << std::endl;
  return 0;
}
