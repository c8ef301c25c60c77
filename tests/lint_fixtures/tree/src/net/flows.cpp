// Fixture tree: R6 must fire on the public mutator and stay silent on the
// private helper — both facts (membership and access) come from the
// companion header resolved through the include graph.
#include "net/flows.hpp"

namespace fixture {

void FlowManager::evict(int id) {
  by_id_.erase(by_id_.begin() + id);
}

void FlowManager::compact(int id) {
  by_id_.push_back(id);
}

}  // namespace fixture
