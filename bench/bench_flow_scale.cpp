// Flow-solver scale sweep: shuffle storms of 100 / 1k / 10k concurrent
// flows drained to completion, plus a ~100k-flow storm bounded to its
// scrape window, all through net::FlowManager.
//
// Emits BENCH_flow_scale.json via exp::BenchReport. Each tier's simulated
// values (final sim time, completed flows, rate recomputes, scrape
// checksum) sit under shuffle_storm/<flows> and are gated exactly against
// bench/baseline/flow_scale.json by bench/compare_baseline.py; wall seconds
// sit under the "wall" group and are reported, never compared. The
// solver's independent reference is naive_max_min_rates in
// tests/property_test.cpp. Exits nonzero if a drained tier completes fewer
// flows than it started.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/benchio.hpp"
#include "net/flow.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "simcore/engine.hpp"
#include "util/table.hpp"

namespace {

using namespace lts;

// M sources on one site, N sinks on another, one backbone: a Spark shuffle
// stage opening every src->dst pair at t=0 in a single event. Sizes vary a
// few percent so completions stagger into many distinct event times.

struct Shuffle {
  net::Topology topo;
  std::vector<net::VertexId> sources;
  std::vector<net::VertexId> sinks;
};

Shuffle make_shuffle_topology(int m, int n) {
  Shuffle s;
  const auto r1 = s.topo.add_router("r1");
  const auto r2 = s.topo.add_router("r2");
  s.topo.add_duplex_link(r1, r2, 100e9, 5e-3);
  for (int i = 0; i < m; ++i) {
    s.sources.push_back(s.topo.add_host("src" + std::to_string(i)));
    s.topo.add_duplex_link(s.sources.back(), r1, 10e9, 1e-4);
  }
  for (int j = 0; j < n; ++j) {
    s.sinks.push_back(s.topo.add_host("dst" + std::to_string(j)));
    s.topo.add_duplex_link(s.sinks.back(), r2, 10e9, 1e-4);
  }
  return s;
}

Bytes shuffle_size(int i, int j) {
  // Deterministic per-pair size variation: staggers the completion times
  // without random draws.
  return 2e6 * (1.0 + static_cast<double>((13 * i + 7 * j) % 97) / 97.0);
}

struct RunResult {
  double wall_seconds = 0.0;
  SimTime final_sim_time = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t recomputes = 0;
  Rate scrape_checksum = 0.0;
};

// Runs one M x N storm with 20 periodic all-host tx/rx rate scrapes (the
// exporter pattern the per-host flow indexes serve), either until the
// engine drains or, when `horizon` > 0, until that simulated time.
RunResult run_storm(int m, int n, SimTime horizon) {
  Shuffle s = make_shuffle_topology(m, n);
  sim::Engine engine;
  net::FlowManager fm(engine, s.topo);
  auto& registry = obs::MetricsRegistry::global();
  auto& recompute_counter = registry.counter("lts_net_rate_recomputes_total");
  registry.set_enabled(true);
  const double recomputes_before = recompute_counter.value();
  RunResult out;
  engine.schedule_at(0.0, [&] {
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        fm.start(s.sources[static_cast<std::size_t>(i)],
                 s.sinks[static_cast<std::size_t>(j)], shuffle_size(i, j),
                 nullptr);
      }
    }
  });
  for (int k = 1; k <= 20; ++k) {
    engine.schedule_at(0.05 * static_cast<double>(k), [&] {
      for (const auto h : s.sources) out.scrape_checksum += fm.host_tx_rate(h);
      for (const auto h : s.sinks) out.scrape_checksum += fm.host_rx_rate(h);
    });
  }
  const auto wall_begin = std::chrono::steady_clock::now();
  if (horizon > 0.0) {
    engine.run_until(horizon);
  } else {
    engine.run();
  }
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin)
          .count();
  registry.set_enabled(false);
  out.final_sim_time = engine.now();
  out.completed = fm.num_completed();
  out.recomputes = static_cast<std::uint64_t>(
      std::llround(recompute_counter.value() - recomputes_before));
  return out;
}

std::string fmt(double v, const char* spec = "%.4f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

}  // namespace

int main() {
  exp::BenchReport report("flow_scale");
  report.note("workload",
              "M x N shuffle storm started in one event; sizes vary ~2x; "
              "20 periodic all-host rate scrapes");
  report.note("tiers",
              "100, 1024 and 10000 flows drained; 99856 flows bounded to "
              "1 simulated second");

  struct Tier {
    int m;
    int n;
    SimTime horizon;  // 0 = drain
  };
  const std::vector<Tier> tiers{
      {10, 10, 0.0}, {32, 32, 0.0}, {100, 100, 0.0}, {316, 316, 1.0}};
  AsciiTable table({"flows", "wall (s)", "recomputes", "completed",
                    "final sim time (s)"});
  bool drained_all = true;
  for (const Tier& tier : tiers) {
    const int flows = tier.m * tier.n;
    const RunResult run = run_storm(tier.m, tier.n, tier.horizon);
    if (tier.horizon == 0.0 &&
        run.completed != static_cast<std::uint64_t>(flows)) {
      drained_all = false;
    }
    const std::string label = "shuffle_storm/" + std::to_string(flows);
    report.add(label, "final_sim_time", run.final_sim_time, "simulated s");
    report.add(label, "completed", static_cast<double>(run.completed));
    report.add(label, "recomputes", static_cast<double>(run.recomputes));
    report.add(label, "scrape_checksum", run.scrape_checksum, "bytes/s");
    report.add("wall", "shuffle_storm_" + std::to_string(flows) + "_s",
               run.wall_seconds, "s");
    table.add_row({std::to_string(flows), fmt(run.wall_seconds),
                   std::to_string(run.recomputes),
                   std::to_string(run.completed),
                   fmt(run.final_sim_time, "%.6f")});
  }
  std::printf("%s", table.render("Flow-solver scale sweep").c_str());
  report.write("BENCH_flow_scale.json");
  std::printf("\nwrote BENCH_flow_scale.json\n");
  if (!drained_all) {
    std::fprintf(stderr,
                 "ERROR: a drained tier completed fewer flows than it "
                 "started\n");
    return 1;
  }
  return 0;
}
