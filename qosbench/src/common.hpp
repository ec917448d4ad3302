// Shared plumbing for the qosbench workloads: options, the result record
// printed as the run's last line, host clocks, the benchmark's own spans, and
// the kernel-split observer used by traced runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/span.hpp"

namespace qosbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string outDir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `attempted`/`failed` count the workload's
/// operations; `correct` is false when any output check failed.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> endToEnd;
  std::vector<Metric> perLayer;

  /// Record a failed output check (printed to stderr, clears `correct`).
  void check(bool ok, const std::string& what);
  void e2e(std::string name, double value, std::string unit) {
    endToEnd.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    perLayer.push_back({std::move(name), value, std::move(unit)});
  }
  /// The run's result line: one JSON object, end-to-end metrics without
  /// tracing, the per-layer metrics the workload set with it (run.py
  /// checks them against BENCHMARK.json and fills in the rest).
  [[nodiscard]] std::string json(bool trace) const;
};

// ---- Host clocks ---------------------------------------------------------

/// Monotonic wall clock, seconds.
double wallSeconds();
/// CPU time of the whole process / of the calling thread, seconds.
double processCpuSeconds();
double threadCpuSeconds();
/// Peak resident set size of the process so far, MB.
double peakRssMb();

/// A fixed integer loop timed in milliseconds (median of five): tells
/// machine drift from program change. Not a program metric.
double calibrationMs();

/// CPU model, core count, compiler and build type, as one JSON object.
std::string machineFingerprint();

/// Median of a non-empty sample (copies).
double median(std::vector<double> values);

/// Quantile q in [0,1] of a log-bucketed histogram, interpolated linearly
/// inside the bucket that holds the rank and clamped to the observed
/// extremes. The histogram's own percentile() returns the bucket's
/// geometric midpoint, which moves in quarter-octave steps.
double interpolatedQuantile(const softqos::sim::Histogram& h, double q);

// ---- Benchmark spans --------------------------------------------------------

/// Spans qosbench records around each call it makes into the program
/// (construct, warm-up, measured phase, exports). Kept in memory and
/// written as a Chrome trace at the end of a traced run.
class BenchSpans {
 public:
  class Scope {
   public:
    Scope(BenchSpans& spans, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    BenchSpans& spans_;
    std::size_t index_;
  };

  /// Write the spans as Chrome-trace JSON; returns false on I/O failure.
  bool write(const std::string& path) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// ---- Kernel split ---------------------------------------------------------

/// Serial-kernel observer that mints no spans (every context it returns is
/// invalid, so instrumented sites record nothing) and sums the wall time
/// the kernel reports for each event's callback. Measured wall time minus
/// that sum, less the hook's own cost (HookCost), is the kernel's own share:
/// heap, dispatch and queue upkeep.
class KernelSplitObserver : public softqos::sim::SpanObserver {
 public:
  softqos::sim::TraceContext beginTrace(softqos::sim::SimTime,
                                        std::string_view,
                                        std::string_view) override {
    return {};
  }
  softqos::sim::TraceContext beginSpan(softqos::sim::SimTime,
                                       const softqos::sim::TraceContext&,
                                       std::string_view,
                                       std::string_view) override {
    return {};
  }
  void endSpan(softqos::sim::SimTime,
               const softqos::sim::TraceContext&) override {}
  void annotate(const softqos::sim::TraceContext&, std::string_view,
                std::string_view) override {}
  softqos::sim::TraceContext instant(softqos::sim::SimTime,
                                     const softqos::sim::TraceContext&,
                                     std::string_view,
                                     std::string_view) override {
    return {};
  }
  void onEventExecuted(softqos::sim::SimTime, std::size_t,
                       std::uint64_t wallNanos) override {
    callbackNanos_ += wallNanos;
  }
  void recordProfile(std::string_view, std::uint64_t) override {}

  void reset() { callbackNanos_ = 0; }
  [[nodiscard]] double callbackSeconds() const {
    return static_cast<double>(callbackNanos_) * 1e-9;
  }

 private:
  std::uint64_t callbackNanos_ = 0;
};

/// Per-event cost of attaching an observer to the serial kernel, measured
/// on an event that does nothing. `hookNs` is how much longer an observed
/// event takes than an unobserved one: the two clock reads and the
/// observer call. `callbackBiasNs` is the callback time the kernel reports
/// for the empty callback: the share of a clock read inside the timed
/// interval. Traced runs subtract both to split kernel from callback time.
struct HookCost {
  double hookNs = 0.0;
  double callbackBiasNs = 0.0;
};
HookCost measureHookCost();

// ---- Workloads -----------------------------------------------------------

Result runFig3(const Options& options, BenchSpans& spans);
Result runCity(const Options& options, BenchSpans& spans);

}  // namespace qosbench
