// Workload "fig3": the paper's Figure 3 sweep on the two-host video testbed.
//
// The sweep runs every (testbed seed, load point) pair twice — with the QoS
// host/domain managers and without them (plain time-sharing) — exactly as
// bench/fig3_video_throughput does for one seed: start the video session,
// add competing CPU workers, prime the load average, run 30 simulated
// seconds of adaptation and measure delivered fps over the next 60. A run
// makes one sweep over 16 seeds, for the figure's outputs, and then timed
// rounds: the sweep's first 2 seeds again, one round per 0.75 requested
// seconds. Every timed round must reproduce the sweep's outputs exactly.
//
// Host time. On a shared host the speed of one core can swing by up to 2x
// for seconds at a time, so a mean over the run follows the host more than
// the program. The measured time is therefore the sum over the 20 timed
// testbed runs of each one's fastest repetition (the sweep's and the timed
// rounds'). The work is deterministic and repeats exactly, so host
// interference can only add to a repetition's time; with about 40
// repetitions each, every testbed run meets a quiet moment of the host.
// Set-up is the median over the timed rounds of a round's summed testbed
// construction time.
//
// Operations: testbed runs. A run fails when its output breaks the figure's
// claims: a managed run below the policy band (28 - 3 fps), or an unmanaged
// run that, at load average >= 7, stays at 10 fps or more or trails its
// managed twin by less than 15 fps. The unmanaged curve (fps averaged over
// the seeds at each load point) must not rise with load; single seeds may,
// by a fraction of a frame, where two load points land close together.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "apps/testbed.hpp"
#include "common.hpp"
#include "manager/default_rules.hpp"
#include "manager/domain_manager.hpp"
#include "manager/host_manager.hpp"
#include "rules/parser.hpp"

namespace qosbench {

namespace {

using namespace softqos;

/// Seeds of one sweep: enough that the managed runs close over 100
/// violation episodes.
constexpr int kSeedsPerSweep = 16;
/// The sweep's first seeds, repeated in every timed round.
constexpr std::size_t kTimedSeeds = 2;
constexpr double kSecondsPerTimedRound = 0.75;

struct LoadPoint {
  int workers;
  double primeLoad;
};
/// Worker counts landing near the paper's load averages {0.7, 3, 5, 7, 10}.
constexpr LoadPoint kPoints[] = {{0, 0.7}, {2, 3.0}, {4, 5.0}, {6, 7.0}, {9, 10.0}};
constexpr sim::SimDuration kAdapt = sim::sec(30);
constexpr sim::SimDuration kMeasure = sim::sec(60);

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// One testbed run's outputs and counters.
struct BedRun {
  double fps = 0.0;
  double load = 0.0;
  std::uint64_t events = 0;
  sim::Histogram reaction;      // qos.reaction_latency_us
  sim::Histogram rpcRoundtrip;  // rpc.roundtrip_us
  sim::Histogram rpcAttempts;   // rpc.attempts
  std::uint64_t contextSwitches = 0;
  std::uint64_t firings = 0;
  std::uint64_t facts = 0;
  std::uint64_t reports = 0;
  std::uint64_t actuations = 0;
  std::uint64_t escalations = 0;
  std::uint64_t telemetryFrames = 0;
  std::uint64_t packets = 0;
  std::uint64_t forwards = 0;
  std::uint64_t channelDrops = 0;
  double setupSeconds = 0.0;
  double runSeconds = 0.0;
  double callbackSeconds = 0.0;  // traced runs only

  /// The simulated outputs two runs of one seed must agree on.
  [[nodiscard]] bool sameOutputs(const BedRun& o) const {
    return fps == o.fps && load == o.load && events == o.events &&
           reaction.buckets() == o.reaction.buckets() &&
           reaction.sum() == o.reaction.sum() && firings == o.firings &&
           packets == o.packets;
  }
};

BedRun runBed(std::uint64_t seed, const LoadPoint& point, bool managed,
              KernelSplitObserver* split) {
  BedRun r;
  const double setupStart = wallSeconds();
  apps::TestbedConfig config;
  config.seed = seed;
  config.withManagers = managed;
  apps::Testbed bed(config);
  bed.startVideo("silver");
  bed.clientLoad.setWorkers(point.workers);
  // The UNIX load average converges over minutes; prime it near the
  // steady-state value so a short warm-up suffices.
  bed.clientHost.loadSampler().prime(point.primeLoad);
  const double runStart = wallSeconds();
  r.setupSeconds = runStart - setupStart;

  if (split != nullptr) {
    split->reset();
    bed.sim.setObserver(split);
  }
  r.events += bed.sim.runUntil(bed.sim.now() + kAdapt);
  const std::uint64_t framesBefore = bed.video->framesDisplayed();
  r.events += bed.sim.runUntil(bed.sim.now() + kMeasure);
  r.fps = static_cast<double>(bed.video->framesDisplayed() - framesBefore) /
          sim::toSeconds(kMeasure);
  r.runSeconds = wallSeconds() - runStart;
  if (split != nullptr) {
    bed.sim.setObserver(nullptr);
    r.callbackSeconds = split->callbackSeconds();
  }

  r.load = bed.clientHost.loadAverage();
  const sim::MetricRegistry& metrics = bed.sim.metrics();
  if (const sim::Histogram* h = metrics.histogram("qos.reaction_latency_us")) {
    r.reaction = *h;
  }
  if (const sim::Histogram* h = metrics.histogram("rpc.roundtrip_us")) {
    r.rpcRoundtrip = *h;
  }
  if (const sim::Histogram* h = metrics.histogram("rpc.attempts")) {
    r.rpcAttempts = *h;
  }
  for (const osim::Host* host : {&bed.clientHost, &bed.serverHost, &bed.mgmtHost}) {
    r.contextSwitches += host->cpu().contextSwitches();
  }
  for (manager::QoSHostManager* hm : {bed.clientHm, bed.serverHm}) {
    if (hm == nullptr) continue;
    r.firings += hm->engine().totalFirings();
    r.facts += hm->engine().facts().size();
    r.reports += hm->reportsReceived();
    r.actuations += hm->boostsApplied() + hm->decaysApplied() +
                    hm->rtGrantsIssued() + hm->memoryGrowths() +
                    hm->restartsPerformed();
    r.escalations += hm->escalationsSent();
  }
  if (bed.dm != nullptr) {
    r.firings += bed.dm->engine().totalFirings();
    r.facts += bed.dm->engine().facts().size();
    r.actuations += bed.dm->serverBoostsSent();
    r.telemetryFrames += bed.dm->telemetryFramesReceived();
  }
  for (const auto& [ends, channel] : bed.network.channels()) {
    r.packets += channel->packetsSent();
    r.channelDrops += channel->drops();
  }
  for (const net::Switch* sw : {&bed.swA, &bed.swB, &bed.swC}) {
    r.forwards += sw->forwarded();
  }
  return r;
}

/// One round: every seed x load point, unmanaged then managed. Index:
/// ((seed * points) + point) * 2 + managed, so a round over the sweep's
/// first seeds lines up with the sweep's first runs.
std::vector<BedRun> runRound(const std::vector<std::uint64_t>& seeds,
                             KernelSplitObserver* split) {
  std::vector<BedRun> runs;
  for (const std::uint64_t seed : seeds) {
    for (const LoadPoint& point : kPoints) {
      runs.push_back(runBed(seed, point, false, split));
      runs.push_back(runBed(seed, point, true, split));
    }
  }
  return runs;
}

constexpr std::size_t kPointCount = sizeof kPoints / sizeof kPoints[0];

const BedRun& at(const std::vector<BedRun>& runs, std::size_t seed,
                 std::size_t point, bool managed) {
  return runs[(seed * kPointCount + point) * 2 + (managed ? 1 : 0)];
}

/// Number of runs in a round over the first `seeds` seeds that break the
/// figure's claims.
std::uint64_t failedRuns(const std::vector<BedRun>& runs, std::size_t seeds) {
  std::uint64_t failed = 0;
  for (std::size_t s = 0; s < seeds; ++s) {
    for (std::size_t p = 0; p < kPointCount; ++p) {
      const BedRun& managed = at(runs, s, p, true);
      const BedRun& normal = at(runs, s, p, false);
      if (managed.fps < 25.0) {
        ++failed;
        std::cerr << "fig3: seed #" << s << " workers=" << kPoints[p].workers
                  << " managed fps " << managed.fps << " < 25\n";
      }
      if (normal.load >= 7.0 &&
          (normal.fps >= 10.0 || managed.fps - normal.fps < 15.0)) {
        ++failed;
        std::cerr << "fig3: seed #" << s << " workers=" << kPoints[p].workers
                  << " unmanaged fps " << normal.fps << " (load "
                  << normal.load << ", managed " << managed.fps << ")\n";
      }
    }
  }
  return failed;
}

}  // namespace

Result runFig3(const Options& options, BenchSpans& spans) {
  Result result;
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < kSeedsPerSweep; ++i) {
    seeds.push_back(
        splitmix(options.seed * 1000003ull + static_cast<std::uint64_t>(i)));
  }
  const std::vector<std::uint64_t> timedSeeds(seeds.begin(),
                                              seeds.begin() + kTimedSeeds);
  const double simPerBed = sim::toSeconds(kAdapt + kMeasure);
  const double simPerRound =
      simPerBed * static_cast<double>(seeds.size() * kPointCount * 2);
  const double simPerTimedRound =
      simPerBed * static_cast<double>(timedSeeds.size() * kPointCount * 2);

  // A timed round takes about kSecondsPerTimedRound of host time on the
  // reference machine; the round count is fixed by --seconds, not by the
  // clock, so every run of one length does the same work.
  const int timedRoundCount = std::max(
      1, static_cast<int>(options.seconds / kSecondsPerTimedRound + 0.5));
  std::vector<BedRun> sweep;
  std::vector<std::vector<BedRun>> timed;
  const double measuredStart = wallSeconds();
  const double cpuStart = processCpuSeconds();
  const double threadStart = threadCpuSeconds();
  {
    BenchSpans::Scope phase(spans, "measured");
    {
      BenchSpans::Scope span(spans, "sweep");
      sweep = runRound(seeds, nullptr);
    }
    for (int i = 0; i < timedRoundCount; ++i) {
      BenchSpans::Scope round(spans, "timed-round");
      timed.push_back(runRound(timedSeeds, nullptr));
    }
  }
  const double measuredWall = wallSeconds() - measuredStart;
  const double processCpu = processCpuSeconds() - cpuStart;
  const double mainCpu = threadCpuSeconds() - threadStart;

  result.attempted += sweep.size();
  result.failed += failedRuns(sweep, seeds.size());
  for (const std::vector<BedRun>& round : timed) {
    result.attempted += round.size();
    result.failed += failedRuns(round, timedSeeds.size());
    for (std::size_t i = 0; i < round.size(); ++i) {
      result.check(round[i].sameOutputs(sweep[i]),
                   "fig3: a timed round changed a testbed's outputs");
    }
  }

  // Host time: construction is set-up, the simulated 90 s per bed is the
  // measured phase. runWall is one timed round's measured time with every
  // bed at its fastest repetition; roundSetups holds each timed round's
  // summed construction time.
  double runWall = 0.0;
  std::uint64_t timedEvents = 0;
  for (std::size_t i = 0; i < timed.front().size(); ++i) {
    double fastest = sweep[i].runSeconds;
    for (const std::vector<BedRun>& round : timed) {
      fastest = std::min(fastest, round[i].runSeconds);
    }
    runWall += fastest;
    timedEvents += sweep[i].events;
  }
  double sweepWall = 0.0;
  for (const BedRun& r : sweep) sweepWall += r.runSeconds;
  std::vector<double> roundSetups;
  for (const std::vector<BedRun>& round : timed) {
    double setup = 0.0;
    for (const BedRun& r : round) setup += r.setupSeconds;
    roundSetups.push_back(setup);
  }

  // Outputs of the sweep (every timed round repeats its first runs).
  sim::Histogram reaction;
  sim::Histogram rpcRoundtrip;
  sim::Histogram rpcAttempts;
  double managedFps = 0.0;
  int managedLoaded = 0;
  BedRun totals;
  const double managedSim = simPerRound / 2;
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    for (std::size_t p = 0; p < kPointCount; ++p) {
      const BedRun& m = at(sweep, s, p, true);
      reaction.merge(m.reaction);
      rpcRoundtrip.merge(m.rpcRoundtrip);
      rpcAttempts.merge(m.rpcAttempts);
      if (kPoints[p].workers > 0) {
        managedFps += m.fps;
        ++managedLoaded;
      }
      for (const BedRun* r : {&m, &at(sweep, s, p, false)}) {
        totals.events += r->events;
        totals.contextSwitches += r->contextSwitches;
        totals.firings += r->firings;
        totals.facts += r->facts;
        totals.reports += r->reports;
        totals.actuations += r->actuations;
        totals.escalations += r->escalations;
        totals.telemetryFrames += r->telemetryFrames;
        totals.packets += r->packets;
        totals.forwards += r->forwards;
        totals.channelDrops += r->channelDrops;
      }
    }
  }
  managedFps /= managedLoaded;
  result.check(reaction.count() > 0, "fig3: managed runs closed no episode");

  std::cout << "fig3: a sweep of " << sweep.size() << " testbed runs over "
            << seeds.size() << " seeds, then " << timed.size()
            << " timed round(s) of " << timed.front().size() << "; "
            << reaction.count() << " reaction samples (managed runs)\n";
  double previousNormal = 0.0;
  for (std::size_t p = 0; p < kPointCount; ++p) {
    double normal = 0.0;
    double managed = 0.0;
    double load = 0.0;
    for (std::size_t s = 0; s < seeds.size(); ++s) {
      normal += at(sweep, s, p, false).fps;
      managed += at(sweep, s, p, true).fps;
      load += at(sweep, s, p, false).load;
    }
    const double n = static_cast<double>(seeds.size());
    std::cout << "fig3: workers=" << kPoints[p].workers << " load=" << load / n
              << " normal_fps=" << normal / n << " managed_fps=" << managed / n
              << '\n';
    result.check(p == 0 || normal <= previousNormal,
                 "fig3: unmanaged fps rises with load at workers=" +
                     std::to_string(kPoints[p].workers));
    previousNormal = normal;
  }

  result.e2e("wall_ms_per_sim_s", 1e3 * runWall / simPerTimedRound,
             "ms/sim_s");
  // Every testbed one timed round builds, as the median over the rounds.
  result.e2e("setup_s", median(roundSetups), "s");
  result.e2e("peak_rss_mb", peakRssMb(), "MB");

  if (options.trace) {
    // One traced sweep: the kernel-split observer on every bed.
    KernelSplitObserver split;
    std::vector<BedRun> traced;
    {
      BenchSpans::Scope phase(spans, "traced-sweep");
      traced = runRound(seeds, &split);
    }
    double tracedWall = 0.0;
    double reported = 0.0;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      result.check(traced[i].sameOutputs(sweep[i]),
                   "fig3: the traced sweep changed a testbed's outputs");
      tracedWall += traced[i].runSeconds;
      reported += traced[i].callbackSeconds;
    }
    // The observer's own per-event cost, measured on empty events, is
    // taken out of both sides of the split.
    const HookCost cost = measureHookCost();
    const auto events = static_cast<double>(totals.events);
    const double callback = reported - events * cost.callbackBiasNs * 1e-9;
    const double kernelSelf = tracedWall - events * cost.hookNs * 1e-9 - callback;
    std::cout << "fig3: observer hook " << cost.hookNs << " ns/event, "
              << cost.callbackBiasNs << " ns of it inside the callback\n";
    result.check(callback > 0.0 && kernelSelf > 0.0,
                 "fig3: the traced sweep, less the observer's cost, does not "
                 "cover its callbacks");
    result.layer("sim.kernel_self_ms_per_sim_s",
                 1e3 * kernelSelf / simPerRound, "ms/sim_s");
    result.layer("sim.callback_ms_per_sim_s", 1e3 * callback / simPerRound,
                 "ms/sim_s");
    // The traced sweep is one repetition: compare it with the untraced
    // sweep, not with the fastest-repetition envelope.
    result.layer("sim.trace_overhead_pct",
                 100.0 * (tracedWall / sweepWall - 1.0), "%");

    // Default rule text parsed once per manager the sweep builds: two host
    // managers and one domain manager per managed testbed.
    const std::string hostRules = manager::defaultHostRules();
    const std::string domainRules = manager::defaultDomainRules();
    const double parseStart = wallSeconds();
    std::size_t parsed = 0;
    for (std::size_t i = 0; i < sweep.size() / 2; ++i) {
      parsed += rules::parseRules(hostRules).size();
      parsed += rules::parseRules(hostRules).size();
      parsed += rules::parseRules(domainRules).size();
    }
    result.check(parsed > 0, "fig3: default rule text parsed to nothing");
    result.layer("rules.parse_ms", (wallSeconds() - parseStart) * 1e3, "ms");
  }

  result.layer("sim.events_per_sim_s", totals.events / simPerRound, "1/sim_s");
  result.layer("sim.host_ns_per_event",
               1e9 * runWall / static_cast<double>(timedEvents), "ns");
  result.layer("sim.busy_workers", processCpu / measuredWall, "workers");
  result.layer("sim.worker0_cpu_share", mainCpu / processCpu, "ratio");
  result.layer("net.packets_per_sim_s", totals.packets / simPerRound, "1/sim_s");
  result.layer("net.switch_forwards_per_sim_s", totals.forwards / simPerRound,
               "1/sim_s");
  result.layer("net.channel_drops", static_cast<double>(totals.channelDrops),
               "count");
  result.layer("net.rpc_calls", static_cast<double>(rpcRoundtrip.count()),
               "count");
  result.layer("net.rpc_roundtrip_ms_p50",
               interpolatedQuantile(rpcRoundtrip, 0.5) / 1e3, "sim_ms");
  result.layer("net.rpc_attempts_per_call", rpcAttempts.mean(), "ratio");
  result.layer("osim.context_switches_per_sim_s",
               totals.contextSwitches / simPerRound, "1/sim_s");
  result.layer("rules.firings_per_sim_s", totals.firings / managedSim,
               "1/sim_s");
  result.layer("rules.facts_at_end", static_cast<double>(totals.facts), "count");
  result.layer("manager.reports_per_sim_s", totals.reports / managedSim,
               "1/sim_s");
  result.layer("manager.actuations_per_sim_s", totals.actuations / managedSim,
               "1/sim_s");
  result.layer("manager.escalations_per_sim_s",
               totals.escalations / managedSim, "1/sim_s");
  result.layer("manager.telemetry_frames_per_sim_s",
               totals.telemetryFrames / managedSim, "1/sim_s");
  result.layer("managed_fps", managedFps, "fps");
  result.layer("reaction_ms_p50", interpolatedQuantile(reaction, 0.5) / 1e3,
               "sim_ms");
  result.layer("reaction_ms_p90", interpolatedQuantile(reaction, 0.9) / 1e3,
               "sim_ms");
  return result;
}

}  // namespace qosbench
