// Workload builders: compile a JobConfig into an AppDag for each of the
// paper's applications (Table 2):
//
//   Sort     — map + full-shuffle reduce; high network and CPU, moderate mem.
//   PageRank — iterative stages, each re-shuffling the edge data; high
//              network and CPU from repeated exchange.
//   Join     — two map stages + a shuffle join whose partition sizes follow
//              a Zipf law; skewed network, CPU and memory.
//   GroupBy  — map-side-combined shuffle with a reduction; the "group-by"
//              shuffle pattern of §5.2.
#pragma once

#include "spark/dag.hpp"
#include "spark/job.hpp"
#include "util/rng.hpp"

namespace lts::spark {

/// Builds the stage DAG for `config`. `rng` supplies the Join skew profile;
/// builders draw nothing else, so a DAG is reusable across counterfactual
/// runs of the same scenario.
AppDag build_dag(const JobConfig& config, Rng& rng);

}  // namespace lts::spark
