// Workloads "city_serial", "city_sharded" and "city_observed": the 1024-host,
// 3-tier apps::City (32 racks x 32 hosts, 8 racks per cluster, a web and a
// video process per host).
//
//   city_serial    the historical serial kernel (shards = 0);
//   city_windowed  8 shards driven by 1 worker: the windowed engine's
//                  rounds and mailboxes without a second thread;
//   city_sharded   8 shards driven by 2 workers (the windowed engine);
//   city_observed  city_sharded plus tail sampling, the QoS contract plane
//                  and a crash of the strongest offerer's host at t = 2 s,
//                  followed by the sampler, trace and analysis exports.
//
// Set-up constructs the city five times (the median is reported) and keeps
// the last one. One simulated second of warm-up follows, then one measured
// phase in 500 ms chunks: 1.25 simulated seconds per requested second
// (1.0 on city_observed), about --seconds of host time on the reference
// machine. Fixing the simulated span rather than the host time keeps every
// output, operation count and memory high-water mark of a (seed, length)
// pair independent of host speed.
//
// Operations, the same number in every run of a workload: per host, its
// violation reports (its manager must have received exactly the transitions
// its host's report stream yields on the report schedule) and its inbound
// paced traffic (every settled message must reach its NIC); per channel, its
// queue (no drops over the run); and, on city_observed, the injected fault
// (it must cause one failover to the strength-20 session, with complete
// retained traces).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/city.hpp"
#include "common.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "manager/default_rules.hpp"
#include "manager/domain_manager.hpp"
#include "manager/host_manager.hpp"
#include "net/nic.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/flame.hpp"
#include "rules/parser.hpp"

namespace qosbench {

namespace {

using namespace softqos;

constexpr int kSetups = 5;
constexpr sim::SimDuration kWarmup = sim::sec(1);
constexpr sim::SimDuration kChunk = sim::msec(500);
constexpr sim::SimTime kCrashAt = sim::sec(2);
/// Every run reaches at least this far, so city_observed's failover and
/// its traces complete.
constexpr sim::SimTime kMinEnd = sim::sec(4);
/// Paced messages sent later than this before the end may still be in
/// flight (three hops of 1 ms propagation plus serialization).
constexpr sim::SimDuration kInFlight = sim::msec(10);

apps::CityConfig cityConfig(const std::string& workload, std::uint64_t seed) {
  apps::CityConfig cfg;
  cfg.seed = seed;
  cfg.tiers = 3;
  cfg.racks = 32;
  cfg.hostsPerRack = 32;
  cfg.racksPerCluster = 8;
  cfg.processesPerHost = 2;
  if (workload == "city_serial") {
    cfg.shards = 0;
    cfg.workers = 1;
  } else {
    cfg.shards = 8;
    cfg.workers = workload == "city_windowed" ? 1 : 2;
  }
  if (workload == "city_observed") {
    cfg.sampling = true;
    cfg.samplerConfig.slowestReservoir = 8;
    cfg.samplerConfig.baselineProbability = 0.01;
    cfg.contractPlane = true;
  }
  return cfg;
}

/// Monotone counters read from public accessors, snapshot before and after
/// the measured phase.
struct Counters {
  std::uint64_t packets = 0;
  std::uint64_t forwards = 0;
  std::uint64_t reports = 0;
  std::uint64_t actuations = 0;
  std::uint64_t escalations = 0;
  std::uint64_t telemetryFrames = 0;
  std::uint64_t firings = 0;
  std::uint64_t contextSwitches = 0;
  std::uint64_t spans = 0;
  std::uint64_t channelDrops = 0;
};

Counters snapshot(apps::City& city) {
  Counters c;
  for (const auto& [ends, channel] : city.network.channels()) {
    c.packets += channel->packetsSent();
    c.channelDrops += channel->drops();
  }
  const apps::CityConfig& cfg = city.config();
  std::vector<std::string> switches{"core"};
  for (int r = 0; r < cfg.racks; ++r) {
    switches.push_back("tor-" + std::string(r < 10 ? "0" : "") + std::to_string(r));
  }
  for (int a = 0; a * cfg.racksPerCluster < cfg.racks; ++a) {
    switches.push_back("agg-" + std::string(a < 10 ? "0" : "") + std::to_string(a));
  }
  for (const std::string& name : switches) {
    if (const auto* sw = dynamic_cast<const net::Switch*>(
            city.network.nodeByName(name))) {
      c.forwards += sw->forwarded();
    }
  }
  for (manager::QoSHostManager* hm : city.hostManagers()) {
    c.reports += hm->reportsReceived();
    c.actuations += hm->boostsApplied() + hm->decaysApplied() +
                    hm->rtGrantsIssued() + hm->memoryGrowths() +
                    hm->restartsPerformed();
    c.escalations += hm->escalationsSent();
    c.firings += hm->engine().totalFirings();
    c.contextSwitches += hm->host().cpu().contextSwitches();
  }
  for (manager::QoSDomainManager* dm : city.qorms.domainManagers()) {
    c.actuations += dm->serverBoostsSent();
    c.telemetryFrames += dm->telemetryFramesReceived();
    c.firings += dm->engine().totalFirings();
  }
  if (city.sampler) c.spans = city.sampler->totalSpans();
  return c;
}

/// Ticks of a periodic event first due at `first`, every `period`, that
/// fired by `until` (the kernel runs events scheduled exactly at the end).
std::uint64_t ticksBy(sim::SimTime first, sim::SimDuration period,
                      sim::SimTime until) {
  if (until < first) return 0;
  return static_cast<std::uint64_t>((until - first) / period) + 1;
}

/// Transitions host h's report ticks produce by `until`, recomputed from
/// the host's "city:<host>" stream: each process's tick draws a flip
/// (p = 0.5 when violated, else 0.25) and a metric, and the host's
/// processes tick in process order within each period.
std::uint64_t expectedReports(const apps::CityConfig& cfg, std::size_t h,
                              const std::string& host, sim::SimTime until) {
  sim::RandomStream rng(cfg.seed, "city:" + host);
  const auto procs = static_cast<std::size_t>(cfg.processesPerHost);
  std::vector<char> violated(procs, 0);
  std::uint64_t flips = 0;
  for (std::int64_t k = 0;; ++k) {
    bool any = false;
    for (std::size_t p = 0; p < procs; ++p) {
      const std::size_t idx = h * procs + p;
      const sim::SimTime due = cfg.reportInterval +
                               sim::usec(131 * static_cast<std::int64_t>(idx + 1)) +
                               k * cfg.reportInterval;
      if (due > until) continue;
      any = true;
      const bool flip = rng.chance(violated[p] ? 0.5 : 0.25);
      (void)rng.uniform(0.0, 1.0);
      if (flip) {
        violated[p] = violated[p] ? 0 : 1;
        ++flips;
      }
    }
    if (!any) break;
  }
  return flips;
}

/// One operation per host and check, so every run of a workload attempts
/// the same number whatever its seed and length. Hosts but `excluded` (the
/// crashed host, whose report and traffic ticks keep running into a dead
/// machine) make two: its manager received exactly the transitions its
/// report stream yields, and its NIC received every paced message its ring
/// predecessor sent more than kInFlight before the end, with no lost or
/// corrupted fragments. Every channel makes one: it dropped nothing from
/// its queue over the whole run.
void checkCity(apps::City& city, const std::string& excluded, Result& result) {
  const apps::CityConfig& cfg = city.config();
  const sim::SimTime end = city.sim.now();
  auto operation = [&result](bool ok, const std::string& what) {
    ++result.attempted;
    if (ok) return;
    ++result.failed;
    std::cout << "city: failed: " << what << '\n';
  };
  for (int r = 0; r < cfg.racks; ++r) {
    for (int i = 0; i < cfg.hostsPerRack; ++i) {
      const auto h = static_cast<std::size_t>(r * cfg.hostsPerRack + i);
      const std::string host = apps::City::hostName(r, i);
      if (host != excluded) {
        const std::uint64_t expected = expectedReports(cfg, h, host, end);
        const std::uint64_t received = city.hostManagers()[h]->reportsReceived();
        operation(received == expected,
                  host + " manager received " + std::to_string(received) +
                      " of " + std::to_string(expected) + " reports");
      }
      // Paced traffic from host h's predecessor in the rack ring.
      const int prev = (i + cfg.hostsPerRack - 1) % cfg.hostsPerRack;
      const std::string source = apps::City::hostName(r, prev);
      if (host == excluded || source == excluded) continue;
      const auto src = static_cast<std::int64_t>(r * cfg.hostsPerRack + prev);
      const sim::SimTime first =
          cfg.trafficInterval + sim::usec(53 * (src + 1) + 11);
      const std::uint64_t sent = ticksBy(first, cfg.trafficInterval, end);
      const std::uint64_t settled =
          ticksBy(first, cfg.trafficInterval, end - kInFlight);
      const net::Nic* nic = city.network.nicForHost(host);
      const std::uint64_t delivered = nic != nullptr ? nic->unboundDrops() : 0;
      operation(nic != nullptr && delivered >= settled && delivered <= sent &&
                    nic->incompleteMessages() == 0 && nic->corruptDrops() == 0,
                host + " NIC received " + std::to_string(delivered) + " of " +
                    std::to_string(settled) + "-" + std::to_string(sent) +
                    " paced messages");
    }
  }
  for (const auto& [ends, channel] : city.network.channels()) {
    operation(channel->drops() == 0,
              city.network.node(ends.first)->name() + " -> " +
                  city.network.node(ends.second)->name() + " dropped " +
                  std::to_string(channel->drops()) + " packets");
  }
  result.check(city.network.unreachableDrops() == 0, "city: unreachable drops");
  result.check(city.sim.pastWindowPosts() == 0, "city: past-window posts");
}

double perSimS(std::uint64_t before, std::uint64_t after, double simSeconds) {
  return static_cast<double>(after - before) / simSeconds;
}

/// Time rules::parseRules on the default rule text once per manager the
/// city builds (the contract rules too where the plane pushes them).
double ruleParseMs(apps::City& city, Result& result) {
  const std::string hostRules = manager::defaultHostRules();
  const std::string contractRules = manager::contractHostRules();
  const std::string domainRules = manager::defaultDomainRules();
  const std::size_t domainCount = city.qorms.domainManagers().size();
  const double start = wallSeconds();
  std::size_t parsed = 0;
  for (std::size_t i = 0; i < city.hostManagers().size(); ++i) {
    parsed += rules::parseRules(hostRules).size();
    if (city.config().contractPlane) {
      parsed += rules::parseRules(contractRules).size();
    }
  }
  for (std::size_t i = 0; i < domainCount; ++i) {
    parsed += rules::parseRules(domainRules).size();
  }
  const double ms = (wallSeconds() - start) * 1e3;
  result.check(parsed > 0, "city: default rule text parsed to nothing");
  return ms;
}

struct Measured {
  std::unique_ptr<apps::City> city;
  std::unique_ptr<faults::FaultInjector> injector;
  std::string victim;
  std::vector<double> setupSeconds;
  Counters before;
  Counters after;
  std::uint64_t events = 0;
  int chunks = 0;
  double wall = 0.0;
  double processCpu = 0.0;
  double mainCpu = 0.0;
  double callback = 0.0;  // traced runs
  [[nodiscard]] double simSeconds() const {
    return sim::toSeconds(kChunk) * chunks;
  }
};

/// Measured chunks for a run of `seconds`: a fixed simulated span per
/// requested second, so every run of one workload and length does the same
/// work (about that much host time here; see README).
int measuredChunks(const apps::CityConfig& cfg, double seconds) {
  const double perSecond = cfg.contractPlane ? 2.0 : 2.5;
  const int minimum = static_cast<int>((kMinEnd - kWarmup) / kChunk);
  return std::max(minimum, static_cast<int>(seconds * perSecond + 0.5));
}

/// Set up (`setups` constructions), arm the fault plan, warm up, then run
/// the measured phase of `chunks` chunks.
Measured measure(const Options& options, int setups, int chunks,
                 KernelSplitObserver* split, BenchSpans& spans) {
  Measured m;
  const apps::CityConfig cfg = cityConfig(options.workload, options.seed);
  for (int i = 0; i < setups; ++i) {
    m.injector.reset();
    m.city.reset();
    BenchSpans::Scope span(spans, "construct");
    const double start = wallSeconds();
    m.city = std::make_unique<apps::City>(cfg);
    m.setupSeconds.push_back(wallSeconds() - start);
  }
  apps::City& city = *m.city;
  if (cfg.contractPlane) {
    // Chaos: the strongest offerer's host crashes; liveliness probing must
    // fail ownership over to the next-strongest alive offerer.
    m.injector = std::make_unique<faults::FaultInjector>(city.sim, city.network);
    osim::Host& victim = city.contractHost(0);
    m.victim = victim.name();
    m.injector->registerHost(victim);
    if (manager::QoSHostManager* hm = city.qorms.hostManagerFor(victim.name())) {
      m.injector->registerHostManager(victim.name(), *hm);
    }
    faults::FaultPlan plan;
    plan.hostCrash(kCrashAt, victim.name());
    m.injector->arm(plan);
  }
  if (split != nullptr) city.sim.setObserver(split);
  {
    BenchSpans::Scope span(spans, "warm-up");
    city.run(kWarmup);
  }
  if (split != nullptr) split->reset();

  BenchSpans::Scope span(spans, split != nullptr ? "measured-traced" : "measured");
  m.before = snapshot(city);
  const double wallStart = wallSeconds();
  const double cpuStart = processCpuSeconds();
  const double threadStart = threadCpuSeconds();
  for (; m.chunks < chunks; ++m.chunks) m.events += city.run(kChunk);
  m.wall = wallSeconds() - wallStart;
  m.processCpu = processCpuSeconds() - cpuStart;
  m.mainCpu = threadCpuSeconds() - threadStart;
  m.after = snapshot(city);
  if (split != nullptr) {
    m.callback = split->callbackSeconds();
    city.sim.setObserver(nullptr);
  }
  return m;
}

/// city_observed: the fault's outcome and the exports over the retained
/// traces. Returns the failover time in simulated ms (0 when none).
double observe(apps::City& city, Result& result, BenchSpans& spans) {
  result.attempted += 1;  // the injected host crash
  const distribution::PolicyAgent& agent = city.qorms.agent();
  int losses = 0;
  int ownerChanges = 0;
  double failoverMs = 0.0;
  // Admission records the first owner at start-up; count what the crash
  // caused.
  for (const obs::FlightRecord& rec : city.flightRecorder->records()) {
    if (rec.when < kCrashAt) continue;
    if (rec.kind == "liveliness-lost") ++losses;
    if (rec.kind == "owner-changed") {
      ++ownerChanges;
      failoverMs = sim::toMillis(rec.when - kCrashAt);
    }
  }
  const std::vector<osim::Pid>& pids = city.contractPids();
  const bool failedOver =
      losses == 1 && ownerChanges == 1 && agent.livelinessLosses() == 1 &&
      agent.ownershipFailovers() == 1 && pids.size() >= 2 &&
      agent.ownerOf("cam-offer") == static_cast<std::uint32_t>(pids[1]);

  double ms = 0.0;
  {
    BenchSpans::Scope span(spans, "finish-sampling");
    const double start = wallSeconds();
    city.finishSampling();
    ms = (wallSeconds() - start) * 1e3;
  }
  result.layer("obs.finish_ms", ms, "ms");
  const obs::TraceSampler& sampler = *city.sampler;
  std::string traceJson;
  {
    BenchSpans::Scope span(spans, "chrome-trace-export");
    const double start = wallSeconds();
    traceJson = obs::chromeTraceJson(sampler);
    ms = (wallSeconds() - start) * 1e3;
  }
  result.layer("obs.trace_export_ms", ms, "ms");
  result.layer("obs.trace_export_kb", static_cast<double>(traceJson.size()) / 1024.0,
               "KiB");

  int lossTraces = 0;
  int failoverTraces = 0;
  for (const obs::SampledTrace* t : sampler.retained()) {
    if (!t->complete || t->rootStart < kCrashAt) continue;
    if (t->rootName == "contract:liveliness-lost") ++lossTraces;
    if (t->rootName == "contract:owner-changed") ++failoverTraces;
  }
  const bool traced = lossTraces == 1 && failoverTraces == 1;
  if (!failedOver || !traced) {
    ++result.failed;
    std::cerr << "city_observed: crash gave " << losses << " loss(es), "
              << ownerChanges << " owner change(s), " << lossTraces << '/'
              << failoverTraces << " retained loss/failover traces\n";
  }

  obs::CriticalPathAnalyzer analyzer;
  obs::FlameGraph flame;
  std::size_t analysisBytes = 0;
  {
    BenchSpans::Scope span(spans, "analysis-exports");
    const double start = wallSeconds();
    analyzer.analyze(sampler);
    flame.addRetained(sampler);
    std::vector<obs::BudgetTarget> budgets{{"reaction", "slo", 1.0e6}};
    for (const auto& [pid, session] : agent.sessions()) {
      if (session.hasContract) {
        budgets.push_back({"pid-" + std::to_string(pid), "contract",
                           session.effectiveDeadlineMs * 1e3});
      }
    }
    analysisBytes = obs::attributionJson(analyzer).size() +
                    obs::latencyBudgetJson(analyzer, budgets).size() +
                    flame.collapsed().size() +
                    flame.speedscopeJson("qosbench").size() +
                    obs::flightRecorderJson(*city.flightRecorder).size();
    ms = (wallSeconds() - start) * 1e3;
  }
  result.layer("obs.analysis_ms", ms, "ms");
  result.check(analysisBytes > 0, "city_observed: empty analysis exports");

  sim::SimDuration attributed = 0;
  bool tiled = analyzer.episodesAnalyzed() > 0;
  for (const obs::EpisodeAttribution& ep : analyzer.episodes()) {
    attributed += ep.rootDuration();
    sim::SimTime cursor = ep.rootStart;
    for (const obs::PathSegment& seg : ep.segments) {
      if (seg.start != cursor) tiled = false;
      cursor = seg.end;
    }
    if (ep.segments.empty() || cursor != ep.rootEnd) tiled = false;
  }
  result.check(tiled, "city_observed: critical-path segments do not tile "
                      "every analysed episode");
  result.check(flame.totalWeight() == attributed,
               "city_observed: flame total differs from the attributed total");
  std::cout << "city_observed: failover " << failoverMs << " ms after the "
            << "crash; " << analyzer.episodesAnalyzed() << " episodes analysed; "
            << sampler.retainedCount() << " traces retained\n";

  result.layer("obs.retained_spans",
               static_cast<double>(sampler.retainedSpanCount()), "count");
  result.layer("obs.retention_ratio",
               sampler.totalSpans() > 0
                   ? static_cast<double>(sampler.retainedSpanCount()) /
                         static_cast<double>(sampler.totalSpans())
                   : 0.0,
               "ratio");
  return failoverMs;
}

}  // namespace

Result runCity(const Options& options, BenchSpans& spans) {
  Result result;
  Measured m = measure(options, kSetups,
                       measuredChunks(cityConfig(options.workload, options.seed),
                                      options.seconds),
                       nullptr, spans);
  apps::City& city = *m.city;
  const double simS = m.simSeconds();

  checkCity(city, m.victim, result);
  const std::string digest = city.digest();

  result.e2e("wall_ms_per_sim_s", 1e3 * m.wall / simS, "ms/sim_s");
  result.e2e("setup_s", median(m.setupSeconds), "s");

  const Counters& b = m.before;
  const Counters& a = m.after;
  result.layer("sim.events_per_sim_s", static_cast<double>(m.events) / simS,
               "1/sim_s");
  result.layer("sim.host_ns_per_event",
               1e9 * m.wall / static_cast<double>(m.events), "ns");
  result.layer("sim.busy_workers", m.processCpu / m.wall, "workers");
  result.layer("sim.worker0_cpu_share", m.mainCpu / m.processCpu, "ratio");
  const net::ShardPlan& plan = city.layout();
  result.layer("sim.cross_shard_edge_share",
               plan.totalEdgeWeight > 0
                   ? plan.crossShardWeight / plan.totalEdgeWeight
                   : 0.0,
               "ratio");
  result.layer("net.packets_per_sim_s", perSimS(b.packets, a.packets, simS),
               "1/sim_s");
  result.layer("net.switch_forwards_per_sim_s",
               perSimS(b.forwards, a.forwards, simS), "1/sim_s");
  result.layer("net.channel_drops", static_cast<double>(a.channelDrops), "count");
  sim::Histogram rpcRoundtrip;
  sim::Histogram rpcAttempts;
  for (sim::ShardId s = 0; s < city.sim.shardCount(); ++s) {
    const sim::MetricRegistry& metrics = city.sim.shardMetrics(s);
    if (const sim::Histogram* h = metrics.histogram("rpc.roundtrip_us")) {
      rpcRoundtrip.merge(*h);
    }
    if (const sim::Histogram* h = metrics.histogram("rpc.attempts")) {
      rpcAttempts.merge(*h);
    }
  }
  result.layer("net.rpc_calls", static_cast<double>(rpcRoundtrip.count()),
               "count");
  result.layer("net.rpc_roundtrip_ms_p50",
               interpolatedQuantile(rpcRoundtrip, 0.5) / 1e3, "sim_ms");
  result.layer("net.rpc_attempts_per_call", rpcAttempts.mean(), "ratio");
  result.layer("osim.context_switches_per_sim_s",
               perSimS(b.contextSwitches, a.contextSwitches, simS), "1/sim_s");
  result.layer("rules.firings_per_sim_s", perSimS(b.firings, a.firings, simS),
               "1/sim_s");
  std::uint64_t facts = 0;
  for (manager::QoSHostManager* hm : city.hostManagers()) {
    facts += hm->engine().facts().size();
  }
  for (manager::QoSDomainManager* dm : city.qorms.domainManagers()) {
    facts += dm->engine().facts().size();
  }
  result.layer("rules.facts_at_end", static_cast<double>(facts), "count");
  result.layer("manager.reports_per_sim_s", perSimS(b.reports, a.reports, simS),
               "1/sim_s");
  result.layer("manager.actuations_per_sim_s",
               perSimS(b.actuations, a.actuations, simS), "1/sim_s");
  result.layer("manager.escalations_per_sim_s",
               perSimS(b.escalations, a.escalations, simS), "1/sim_s");
  result.layer("manager.telemetry_frames_per_sim_s",
               perSimS(b.telemetryFrames, a.telemetryFrames, simS), "1/sim_s");
  if (city.sampler) {
    result.layer("obs.spans_per_sim_s", perSimS(b.spans, a.spans, simS),
                 "1/sim_s");
  }
  if (options.trace) {
    result.layer("rules.parse_ms", ruleParseMs(city, result), "ms");
  }

  std::cout << options.workload << ": " << m.chunks << " chunks of "
            << sim::toMillis(kChunk) << " ms measured after "
            << sim::toSeconds(kWarmup) << " s warm-up; " << m.events
            << " events; " << result.attempted << " operations checked\n";

  if (city.flightRecorder) {
    result.layer("failover_ms", observe(city, result, spans), "sim_ms");
  }
  result.e2e("peak_rss_mb", peakRssMb(), "MB");

  if (options.trace && city.config().shards == 0) {
    // Traced twin: the same seed and chunk count under the kernel-split
    // observer; it must reproduce the untraced digest.
    const int chunks = m.chunks;
    const double untracedWall = m.wall;
    m.injector.reset();  // frees the untraced city before the traced one
    m.city.reset();
    KernelSplitObserver split;
    Measured t = measure(options, 1, chunks, &split, spans);
    result.check(t.city->digest() == digest,
                 "city: the traced run changed City::digest()");
    // The observer's own per-event cost, measured on empty events, is
    // taken out of both sides of the split.
    const HookCost cost = measureHookCost();
    const auto events = static_cast<double>(t.events);
    const double callback = t.callback - events * cost.callbackBiasNs * 1e-9;
    const double kernelSelf = t.wall - events * cost.hookNs * 1e-9 - callback;
    std::cout << "city: observer hook " << cost.hookNs << " ns/event, "
              << cost.callbackBiasNs << " ns of it inside the callback\n";
    result.check(callback > 0.0 && kernelSelf > 0.0,
                 "city: the traced phase, less the observer's cost, does not "
                 "cover its callbacks");
    result.layer("sim.kernel_self_ms_per_sim_s", 1e3 * kernelSelf / simS,
                 "ms/sim_s");
    result.layer("sim.callback_ms_per_sim_s", 1e3 * callback / simS,
                 "ms/sim_s");
    result.layer("sim.trace_overhead_pct",
                 100.0 * (t.wall / untracedWall - 1.0), "%");
  }
  return result;
}

}  // namespace qosbench
