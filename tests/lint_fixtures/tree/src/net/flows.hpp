// Fixture tree: a FlowManager-protocol class whose header carries the
// member and access declarations the cross-file index must resolve for
// flows.cpp.
#pragma once

namespace fixture {

class FlowManager {
 public:
  void evict(int id);
  void mark_dirty() { dirty_ = true; }

 private:
  void compact(int id);

  std::vector<int> by_id_;
  bool dirty_ = false;
};

}  // namespace fixture
