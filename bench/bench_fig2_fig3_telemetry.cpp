// Figures 2 and 3 reproduction: average latency and average transmit
// bandwidth per node across five runs of Sort.
//
// Runs five Sort jobs in one living environment (background load included)
// and prints, from that one collection, each node's mean RTT-to-peers
// (Figure 2) and NIC transmit rate (Figure 3) averaged over the five run
// windows — the series the paper plots. The expected shapes: FIU nodes sit
// higher in latency (cross-country RTTs), and nodes carrying background
// traffic are further inflated by queueing delay; nodes hosting background
// HTTP servers or shuffle-heavy executors transmit more, and the driver node
// shows the jar/broadcast bursts.
#include <cstdio>

#include "exp/figures.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int main() {
  using namespace lts;
  spark::JobConfig sort_config;
  sort_config.app = spark::AppType::kSort;
  sort_config.input_records = 1000000;
  sort_config.executors = 4;

  exp::FigureOptions options;
  options.seed = 118;  // a seed with visible background contention
  options.runs = 5;
  options.driver_node = 0;

  const auto figures = exp::figure_sort_telemetry(sort_config, options);

  AsciiTable latency({"node", "avg latency (ms)"});
  for (std::size_t i = 0; i < figures.avg_latency_ms.nodes.size(); ++i) {
    latency.add_row({figures.avg_latency_ms.nodes[i],
                     strformat("%.2f", figures.avg_latency_ms.values[i])});
  }
  std::printf("%s", latency
                        .render("Figure 2: average latency per node across "
                                "five runs of Sort")
                        .c_str());

  AsciiTable bandwidth({"node", "avg transmit bandwidth (MB/s)"});
  for (std::size_t i = 0; i < figures.avg_tx_mbps.nodes.size(); ++i) {
    bandwidth.add_row({figures.avg_tx_mbps.nodes[i],
                       strformat("%.1f", figures.avg_tx_mbps.values[i])});
  }
  std::printf("\n%s", bandwidth
                          .render("Figure 3: average transmit bandwidth per "
                                  "node across five runs of Sort")
                          .c_str());

  std::printf("\nrun durations:");
  for (const double d : figures.run_durations) std::printf(" %.1fs", d);
  std::printf("\n");
  return 0;
}
