#include "common.hpp"

#include "sim/simulation.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace qosbench {

namespace {

std::string jsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Shortest round-trip text of a double: every digit as measured.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double cpuClock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::cerr << "qosbench: check failed: " << what << '\n';
}

std::string Result::json(bool trace) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  const std::vector<Metric>& metrics = trace ? perLayer : endToEnd;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << '"' << jsonEscape(metrics[i].name) << "\": {\"value\": "
        << number(metrics[i].value) << ", \"unit\": \""
        << jsonEscape(metrics[i].unit) << "\"}";
  }
  out << "}}";
  return out.str();
}

double wallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double processCpuSeconds() { return cpuClock(CLOCK_PROCESS_CPUTIME_ID); }
double threadCpuSeconds() { return cpuClock(CLOCK_THREAD_CPUTIME_ID); }

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double calibrationMs() {
  std::vector<double> times;
  volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const double start = wallSeconds();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t i = 0; i < 20'000'000u; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x += i;
    }
    sink = sink + x;
    times.push_back((wallSeconds() - start) * 1e3);
  }
  return median(times);
}

HookCost measureHookCost() {
  constexpr std::int64_t kEvents = 1'000'000;
  std::vector<double> plainNs;
  std::vector<double> observedNs;
  std::vector<double> biasNs;
  KernelSplitObserver split;
  for (int rep = 0; rep < 5; ++rep) {
    for (const bool observed : {false, true}) {
      softqos::sim::Simulation sim;
      sim.every(softqos::sim::usec(1), [] {});
      split.reset();
      if (observed) sim.setObserver(&split);
      const double start = wallSeconds();
      const auto events =
          static_cast<double>(sim.runUntil(softqos::sim::usec(kEvents)));
      const double ns = (wallSeconds() - start) * 1e9 / events;
      if (observed) {
        observedNs.push_back(ns);
        biasNs.push_back(split.callbackSeconds() * 1e9 / events);
      } else {
        plainNs.push_back(ns);
      }
    }
  }
  return {median(observedNs) - median(plainNs), median(biasNs)};
}

std::string machineFingerprint() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  std::ostringstream out;
  out << "{\"cpu\": \"" << jsonEscape(model)
      << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"compiler\": \"" << QOSBENCH_COMPILER
      << "\", \"build_type\": \"" << QOSBENCH_BUILD_TYPE << "\"}";
  return out.str();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double interpolatedQuantile(const softqos::sim::Histogram& h, double q) {
  using softqos::sim::Histogram;
  if (h.count() == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count());
  double seen = 0.0;
  const std::vector<std::uint64_t>& buckets = h.buckets();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double n = static_cast<double>(buckets[i]);
    if (seen + n >= rank) {
      const double lo = Histogram::bucketLowerBound(i);
      const double hi = Histogram::bucketLowerBound(i + 1);
      const double value = lo + (rank - seen) / n * (hi - lo);
      return std::min(h.max(), std::max(h.min(), value));
    }
    seen += n;
  }
  return h.max();
}

BenchSpans::Scope::Scope(BenchSpans& spans, std::string name)
    : spans_(spans), index_(spans.spans_.size()) {
  const int parent =
      spans.open_.empty() ? -1 : static_cast<int>(spans.open_.back());
  spans.spans_.push_back({std::move(name), wallSeconds(), 0.0, parent});
  spans.open_.push_back(index_);
}

BenchSpans::Scope::~Scope() {
  spans_.spans_[index_].end = wallSeconds();
  spans_.open_.pop_back();
}

bool BenchSpans::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ",";
    out << "\n{\"name\": \"" << jsonEscape(s.name)
        << "\", \"cat\": \"qosbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
        << ", \"ts\": " << number((s.start - origin) * 1e6)
        << ", \"dur\": " << number((s.end - s.start) * 1e6)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace qosbench
