// R6 fixture: invalidation protocol violations. Linted under a virtual
// src/net/ path with r6_epoch_header.txt as the companion (it supplies the
// class index: which members exist and which functions are public). Never
// built.
#include "net/flow.hpp"

namespace lts::net {

// Fires: public mutator of the flow index with no dirty acknowledgment.
void FlowManager::forget_flow(int slot) {
  by_id_.erase(by_id_.begin() + slot);
}

// Clean: the same mutation acknowledged through the named mark.
void FlowManager::adopt_flow(int slot) {
  by_id_.push_back(slot);
  mark_dirty();
}

// Clean: acknowledged through the public invalidation entry point.
void FlowManager::reserve_slots(int n) {
  slots_.resize(n);
  invalidate_rates();
}

// Clean: private helper (the header declares compact_locked under
// private:); its public caller owns the acknowledgment.
void FlowManager::compact_locked(int slot) {
  path_arena_.erase(path_arena_.begin() + slot);
}

// Fires: arena accounting changed with no dirty mark.
void FlowManager::grow_paths(int words) {
  live_path_words_ += words;
}

// Fires, then waived below: malformed waiver first (missing justification),
// so the diagnostic still lands AND a waiver-syntax is reported.
void FlowManager::clear_arena() {
  // lts-lint: epoch-ok
  path_arena_.clear();
}

// Fires: slot recycling without dirty marking.
void FlowManager::recycle_slot(int slot) {
  free_slots_.push_back(slot);
}

// Clean: the flag assignment itself is the acknowledgment.
void FlowManager::take_slot() {
  free_slots_.pop_back();
  dirty_ = true;
}

}  // namespace lts::net
