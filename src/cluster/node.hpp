// A simulated cluster node: CPU pool, memory accounting, and its attachment
// point in the network topology.
#pragma once

#include <memory>
#include <string>

#include "cluster/cpu.hpp"
#include "net/topology.hpp"
#include "simcore/engine.hpp"
#include "util/common.hpp"

namespace lts::cluster {

class Node {
 public:
  Node(sim::Engine& engine, std::string name, std::string site,
       net::VertexId vertex, double cores, Bytes memory);
  /// Copies `other` onto `engine`, a copy of other's engine.
  Node(const Node& other, sim::Engine& engine);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& name() const { return name_; }
  const std::string& site() const { return site_; }
  net::VertexId vertex() const { return vertex_; }

  CpuPool& cpu() { return cpu_; }
  const CpuPool& cpu() const { return cpu_; }

  double cores() const { return cpu_.cores(); }
  Bytes memory_capacity() const { return memory_capacity_; }
  Bytes memory_used() const { return memory_used_; }
  Bytes memory_available() const { return memory_capacity_ - memory_used_; }

  /// Reserves memory. Over-commit is allowed (the node starts swapping
  /// rather than OOM-killing in this model); memory_pressure() reports it.
  void allocate_memory(Bytes bytes);
  void release_memory(Bytes bytes);

  /// used / capacity; > 1 under over-commit.
  double memory_pressure() const { return memory_used_ / memory_capacity_; }

 private:
  std::string name_;
  std::string site_;
  net::VertexId vertex_;
  CpuPool cpu_;
  Bytes memory_capacity_;
  Bytes memory_used_ = 0.0;
};

}  // namespace lts::cluster
