#include "net/flow.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"

namespace lts::net {

namespace {
// Flows with fewer remaining bytes than this are considered delivered; it is
// far below one byte so no real transfer is cut short.
constexpr Bytes kRemainingEpsilon = 1e-6;

struct RecomputeMetrics {
  obs::Counter& total = obs::counter(
      "lts_net_rate_recomputes_total", {},
      "Max-min fair rate recomputations run by FlowManager");
  obs::Histogram& rounds = obs::histogram(
      "lts_net_rate_recompute_rounds", {1, 2, 4, 8, 16, 32, 64}, {},
      "Progressive-filling rounds per rate recomputation");
  obs::Histogram& duration = obs::histogram(
      "lts_net_rate_recompute_duration_seconds",
      {1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2}, {},
      "Wall-clock duration of one rate recomputation");
  static RecomputeMetrics& get() {
    static RecomputeMetrics m;
    return m;
  }
};
}  // namespace

FlowManager::FlowManager(sim::Engine& engine, const Topology& topo,
                         FlowOptions options)
    : engine_(engine),
      topo_(topo),
      options_(options),
      obs_enabled_(obs::MetricsRegistry::global().enabled_flag()) {
  const std::size_t links = topo_.num_links();
  link_alloc_.assign(links, 0.0);
  alloc_epoch_.assign(links, 0);
  residual_.assign(links, 0.0);
  residual_epoch_.assign(links, 0);
  link_count_.assign(links, 0);
  count_epoch_.assign(links, 0);
  bottleneck_epoch_.assign(links, 0);
  const std::size_t vertices = topo_.num_vertices();
  tx_head_.assign(vertices, kNoSlot);
  tx_tail_.assign(vertices, kNoSlot);
  rx_head_.assign(vertices, kNoSlot);
  rx_tail_.assign(vertices, kNoSlot);
  tx_count_.assign(vertices, 0);
  rx_count_.assign(vertices, 0);
  host_tx_.assign(vertices, 0.0);
  host_rx_.assign(vertices, 0.0);
  last_update_ = engine_.now();
}

std::uint32_t FlowManager::find_slot(FlowId id) const {
  const auto it = std::lower_bound(
      by_id_.begin(), by_id_.end(), id,
      [this](std::uint32_t s, FlowId v) { return slots_[s].id < v; });
  if (it == by_id_.end() || slots_[*it].id != id) return kNoSlot;
  return *it;
}

std::uint32_t FlowManager::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void FlowManager::release_slot(std::uint32_t slot) {
  Flow& f = slots_[slot];
  const auto src = static_cast<std::size_t>(f.src);
  const auto dst = static_cast<std::size_t>(f.dst);
  if (f.tx_prev != kNoSlot) {
    slots_[f.tx_prev].tx_next = f.tx_next;
  } else {
    tx_head_[src] = f.tx_next;
  }
  if (f.tx_next != kNoSlot) {
    slots_[f.tx_next].tx_prev = f.tx_prev;
  } else {
    tx_tail_[src] = f.tx_prev;
  }
  --tx_count_[src];
  if (f.rx_prev != kNoSlot) {
    slots_[f.rx_prev].rx_next = f.rx_next;
  } else {
    rx_head_[dst] = f.rx_next;
  }
  if (f.rx_next != kNoSlot) {
    slots_[f.rx_next].rx_prev = f.rx_prev;
  } else {
    rx_tail_[dst] = f.rx_prev;
  }
  --rx_count_[dst];
  live_path_words_ -= f.path_len;
  f.id = kInvalidFlow;
  f.on_complete = nullptr;
  free_slots_.push_back(slot);
}

void FlowManager::maybe_compact_arena() {
  // Dead spans accumulate as flows finish; rewrite once they dominate. The
  // floor keeps short-lived small workloads from compacting constantly.
  if (path_arena_.size() <= 64 ||
      path_arena_.size() <= 2 * live_path_words_) {
    return;
  }
  std::vector<LinkId> fresh;
  fresh.reserve(live_path_words_);
  for (const std::uint32_t s : by_id_) {
    Flow& f = slots_[s];
    const auto new_begin = static_cast<std::uint32_t>(fresh.size());
    fresh.insert(fresh.end(), path_arena_.begin() + f.path_begin,
                 path_arena_.begin() + f.path_begin + f.path_len);
    f.path_begin = new_begin;
  }
  path_arena_ = std::move(fresh);
}

FlowId FlowManager::start(VertexId src, VertexId dst, Bytes size,
                          std::function<void()> on_complete) {
  LTS_REQUIRE(size > 0.0, "FlowManager: flow size must be positive");
  LTS_REQUIRE(src != dst, "FlowManager: flow to self");
  advance();
  const SimTime rtt = base_rtt(src, dst);
  const auto& route = topo_.route(src, dst);
  const std::uint32_t slot = acquire_slot();
  Flow& f = slots_[slot];
  f.id = next_id_++;
  f.src = src;
  f.dst = dst;
  f.total = size;
  f.remaining = size;
  f.rate = 0.0;
  f.cap = options_.tcp_window_bytes / std::max(rtt, 1e-6);
  f.path_begin = static_cast<std::uint32_t>(path_arena_.size());
  f.path_len = static_cast<std::uint32_t>(route.size());
  path_arena_.insert(path_arena_.end(), route.begin(), route.end());
  live_path_words_ += f.path_len;
  f.on_complete = std::move(on_complete);
  // Tail insertion: new ids are maximal, so both lists stay in id order.
  const auto srci = static_cast<std::size_t>(src);
  const auto dsti = static_cast<std::size_t>(dst);
  f.tx_prev = tx_tail_[srci];
  f.tx_next = kNoSlot;
  if (tx_tail_[srci] != kNoSlot) {
    slots_[tx_tail_[srci]].tx_next = slot;
  } else {
    tx_head_[srci] = slot;
  }
  tx_tail_[srci] = slot;
  ++tx_count_[srci];
  f.rx_prev = rx_tail_[dsti];
  f.rx_next = kNoSlot;
  if (rx_tail_[dsti] != kNoSlot) {
    slots_[rx_tail_[dsti]].rx_next = slot;
  } else {
    rx_head_[dsti] = slot;
  }
  rx_tail_[dsti] = slot;
  ++rx_count_[dsti];
  by_id_.push_back(slot);
  mark_dirty();
  return f.id;
}

void FlowManager::cancel(FlowId id) {
  advance();
  const std::uint32_t slot = find_slot(id);
  if (slot == kNoSlot) return;
  const auto it = std::lower_bound(
      by_id_.begin(), by_id_.end(), id,
      [this](std::uint32_t s, FlowId v) { return slots_[s].id < v; });
  by_id_.erase(it);
  release_slot(slot);
  maybe_compact_arena();
  mark_dirty();
}

void FlowManager::invalidate_rates() {
  advance();
  mark_dirty();
}

void FlowManager::mark_dirty() {
  if (dirty_) return;
  dirty_ = true;
  // Same-timestamp hook: it runs after every event already queued at this
  // instant, so a storm of same-time mutations shares one recompute. The
  // first rate observation before the hook fires flushes early instead;
  // either way no stale rate is ever visible and no simulated time passes
  // while the allocation is stale.
  flush_event_ = engine_.schedule_in(0.0, [this] {
    flush_event_ = sim::kInvalidEvent;
    flush();
  });
}

void FlowManager::flush() {
  if (!dirty_) return;
  dirty_ = false;
  if (flush_event_ != sim::kInvalidEvent) {
    engine_.cancel(flush_event_);
    flush_event_ = sim::kInvalidEvent;
  }
  // Byte accounting first, at the pre-mutation rates (a no-op in practice:
  // dirtiness never survives a clock advance).
  advance();
  recompute_rates();
  schedule_next_completion();
}

FlowInfo FlowManager::info(FlowId id) const {
  ensure_fresh();
  const std::uint32_t slot = find_slot(id);
  LTS_REQUIRE(slot != kNoSlot, "FlowManager: unknown flow");
  // const_cast-free lazy accounting: report based on last_update_ plus
  // extrapolation at the current rate.
  const Flow& f = slots_[slot];
  const SimTime dt = engine_.now() - last_update_;
  const Bytes extra = std::min(f.remaining, f.rate * dt);
  return FlowInfo{f.src, f.dst, f.total, f.total - f.remaining + extra,
                  f.rate};
}

double FlowManager::link_utilization(LinkId link) const {
  ensure_fresh();
  LTS_REQUIRE(link >= 0 && static_cast<std::size_t>(link) < link_alloc_.size(),
              "FlowManager: bad link id");
  const Rate cap = topo_.link(link).capacity;
  const auto li = static_cast<std::size_t>(link);
  // Links untouched by the last fill carry no allocation; their stale array
  // entries are simply never read.
  const Rate alloc = alloc_epoch_[li] == last_fill_epoch_ ? link_alloc_[li]
                                                          : 0.0;
  return std::clamp(alloc / cap, 0.0, 1.0);
}

SimTime FlowManager::link_queue_delay(LinkId link) const {
  const double u = link_utilization(link);
  return options_.max_queue_delay * u * u * u * u;
}

SimTime FlowManager::current_rtt(VertexId a, VertexId b) const {
  SimTime total = 2.0 * options_.host_stack_delay;
  for (const LinkId lid : topo_.route(a, b)) {
    total += topo_.link(lid).prop_delay + link_queue_delay(lid);
  }
  for (const LinkId lid : topo_.route(b, a)) {
    total += topo_.link(lid).prop_delay + link_queue_delay(lid);
  }
  return total;
}

SimTime FlowManager::base_rtt(VertexId a, VertexId b) const {
  return 2.0 * options_.host_stack_delay + topo_.path_prop_delay(a, b) +
         topo_.path_prop_delay(b, a);
}

Bytes FlowManager::host_tx_bytes(VertexId host) const {
  LTS_REQUIRE(host >= 0 && static_cast<std::size_t>(host) < host_tx_.size(),
              "FlowManager: bad host id");
  ensure_fresh();
  Bytes total = host_tx_[static_cast<std::size_t>(host)];
  const SimTime dt = engine_.now() - last_update_;
  for (std::uint32_t s = tx_head_[static_cast<std::size_t>(host)];
       s != kNoSlot; s = slots_[s].tx_next) {
    const Flow& f = slots_[s];
    total += std::min(f.remaining, f.rate * dt);
  }
  return total;
}

Bytes FlowManager::host_rx_bytes(VertexId host) const {
  LTS_REQUIRE(host >= 0 && static_cast<std::size_t>(host) < host_rx_.size(),
              "FlowManager: bad host id");
  ensure_fresh();
  Bytes total = host_rx_[static_cast<std::size_t>(host)];
  const SimTime dt = engine_.now() - last_update_;
  for (std::uint32_t s = rx_head_[static_cast<std::size_t>(host)];
       s != kNoSlot; s = slots_[s].rx_next) {
    const Flow& f = slots_[s];
    total += std::min(f.remaining, f.rate * dt);
  }
  return total;
}

void FlowManager::reset_host_counters(VertexId host) {
  LTS_REQUIRE(host >= 0 && static_cast<std::size_t>(host) < host_tx_.size(),
              "FlowManager: bad host id");
  advance();
  host_tx_[static_cast<std::size_t>(host)] = 0.0;
  host_rx_[static_cast<std::size_t>(host)] = 0.0;
}

Rate FlowManager::host_tx_rate(VertexId host) const {
  LTS_REQUIRE(host >= 0 && static_cast<std::size_t>(host) < tx_head_.size(),
              "FlowManager: bad host id");
  ensure_fresh();
  Rate total = 0.0;
  for (std::uint32_t s = tx_head_[static_cast<std::size_t>(host)];
       s != kNoSlot; s = slots_[s].tx_next) {
    total += slots_[s].rate;
  }
  return total;
}

Rate FlowManager::host_rx_rate(VertexId host) const {
  LTS_REQUIRE(host >= 0 && static_cast<std::size_t>(host) < rx_head_.size(),
              "FlowManager: bad host id");
  ensure_fresh();
  Rate total = 0.0;
  for (std::uint32_t s = rx_head_[static_cast<std::size_t>(host)];
       s != kNoSlot; s = slots_[s].rx_next) {
    total += slots_[s].rate;
  }
  return total;
}

std::size_t FlowManager::host_active_flows(VertexId host) const {
  LTS_REQUIRE(host >= 0 && static_cast<std::size_t>(host) < tx_count_.size(),
              "FlowManager: bad host id");
  // src != dst always, so the two counters never double-count a flow.
  return tx_count_[static_cast<std::size_t>(host)] +
         rx_count_[static_cast<std::size_t>(host)];
}

void FlowManager::advance() {
  const SimTime now = engine_.now();
  const SimTime dt = now - last_update_;
  if (dt <= 0.0) {
    last_update_ = now;
    return;
  }
  for (const std::uint32_t s : by_id_) {
    Flow& f = slots_[s];
    const Bytes delta = std::min(f.remaining, f.rate * dt);
    f.remaining -= delta;
    host_tx_[static_cast<std::size_t>(f.src)] += delta;
    host_rx_[static_cast<std::size_t>(f.dst)] += delta;
  }
  last_update_ = now;
}

void FlowManager::recompute_rates() {
  // Instrumentation stays out of the solver itself: holding the clock value
  // and enabled flag live across the progressive fill measurably slows the
  // unobserved path through extra register spills.
  if (!obs_enabled_->load(std::memory_order_relaxed)) {
    recompute_rates_core();
    return;
  }
  // lts-lint: nondeterminism-ok(wall time measures real solver cost for the obs duration histogram only; it never reaches flow state, rates, or telemetry series)
  const auto wall_begin = std::chrono::steady_clock::now();
  const std::size_t rounds = recompute_rates_core();
  record_recompute_metrics(rounds, wall_begin);
}

std::size_t FlowManager::recompute_rates_core() {
  const std::uint64_t fill_epoch = ++epoch_;
  last_fill_epoch_ = fill_epoch;
  completion_heap_.clear();
  if (by_id_.empty()) return 0;
  const std::size_t rounds = fill_flows(fill_epoch);

  // Final accumulation in id order (the order the old full-map walk used,
  // so per-link sums round identically) doubles as the heap build.
  completion_heap_.reserve(by_id_.size());
  for (const std::uint32_t s : by_id_) {
    const Flow& f = slots_[s];
    const LinkId* path = path_arena_.data() + f.path_begin;
    for (std::uint32_t k = 0; k < f.path_len; ++k) {
      const auto li = static_cast<std::size_t>(path[k]);
      if (alloc_epoch_[li] != fill_epoch) {
        alloc_epoch_[li] = fill_epoch;
        link_alloc_[li] = 0.0;
      }
      link_alloc_[li] += f.rate;
    }
    LTS_ASSERT(f.rate > 0.0);
    completion_heap_.push_back(HeapEntry{f.remaining / f.rate, s});
  }
  const auto later = [](const HeapEntry& a, const HeapEntry& b) {
    return a.eta > b.eta;
  };
  std::make_heap(completion_heap_.begin(), completion_heap_.end(), later);
  return rounds;
}

std::size_t FlowManager::fill_flows(std::uint64_t fill_epoch) {
  std::size_t rounds = 0;
  unfrozen_.clear();
  unfrozen_.reserve(by_id_.size());
  for (const std::uint32_t s : by_id_) {
    slots_[s].rate = 0.0;
    unfrozen_.push_back(s);
  }

  auto freeze = [&](std::uint32_t slot, Rate rate) {
    Flow& f = slots_[slot];
    // Floor guards against rounding freezing a flow at exactly zero, which
    // would make its completion time unschedulable. 1e-3 B/s is far below
    // any physically meaningful rate in the model. The links are debited by
    // the rate actually assigned (floor included), so floored flows never
    // oversubscribe their path.
    f.rate = std::max(rate, 1e-3);
    const LinkId* path = path_arena_.data() + f.path_begin;
    for (std::uint32_t k = 0; k < f.path_len; ++k) {
      const auto li = static_cast<std::size_t>(path[k]);
      residual_[li] = std::max(0.0, residual_[li] - f.rate);
    }
  };

  // Progressive filling freezes at least one flow per iteration; anything
  // beyond flows+1 iterations is a logic error, not a slow convergence.
  std::size_t iteration_guard = by_id_.size() + 2;
  while (!unfrozen_.empty()) {
    LTS_ASSERT(iteration_guard-- > 0);
    ++rounds;
    // Per-round link state is epoch-stamped: a link's count (and later its
    // bottleneck mark) is valid only when stamped with this round's epoch,
    // so resetting costs nothing and per-round work is proportional to the
    // unfrozen flows' total path length, not to the number of links.
    const std::uint64_t round_epoch = ++epoch_;
    touched_links_.clear();
    for (const std::uint32_t s : unfrozen_) {
      const Flow& f = slots_[s];
      const LinkId* path = path_arena_.data() + f.path_begin;
      for (std::uint32_t k = 0; k < f.path_len; ++k) {
        const LinkId lid = path[k];
        const auto li = static_cast<std::size_t>(lid);
        if (count_epoch_[li] != round_epoch) {
          count_epoch_[li] = round_epoch;
          link_count_[li] = 0;
          // lts-lint: alloc-ok(persistent scratch: cleared per round with capacity retained, bounded by touched links)
          touched_links_.push_back(lid);
          if (residual_epoch_[li] != fill_epoch) {
            residual_epoch_[li] = fill_epoch;
            residual_[li] = topo_.link(lid).capacity;
          }
        }
        ++link_count_[li];
      }
    }
    // Fair share currently offered by the tightest link. A min over a set
    // of doubles is order-independent, so visiting links in touch order
    // gives the exact value the full index-order scan used to produce.
    Rate bottleneck_share = std::numeric_limits<Rate>::infinity();
    for (const LinkId lid : touched_links_) {
      const auto li = static_cast<std::size_t>(lid);
      bottleneck_share =
          std::min(bottleneck_share,
                   residual_[li] / static_cast<Rate>(link_count_[li]));
    }
    LTS_ASSERT(std::isfinite(bottleneck_share));

    // Flows whose TCP cap is below the share freeze at their cap first: they
    // cannot use their full fair share, which frees capacity for the rest.
    bool froze_capped = false;
    for (std::size_t i = 0; i < unfrozen_.size();) {
      if (slots_[unfrozen_[i]].cap <= bottleneck_share) {
        freeze(unfrozen_[i], slots_[unfrozen_[i]].cap);
        unfrozen_[i] = unfrozen_.back();
        unfrozen_.pop_back();
        froze_capped = true;
      } else {
        ++i;
      }
    }
    if (froze_capped) continue;

    // Otherwise freeze every flow crossing a bottleneck link at the share.
    // The bottleneck set must come from the state at the start of the round:
    // freeze() lowers residuals as it goes, and testing links against the
    // mutated residuals would pull extra links into this round's bottleneck
    // set, freezing their flows at a share that belongs to a tighter link —
    // flows with identical paths then end up with different rates, which is
    // exactly the unfairness max-min forbids.
    for (const LinkId lid : touched_links_) {
      const auto li = static_cast<std::size_t>(lid);
      if (residual_[li] / static_cast<Rate>(link_count_[li]) <=
          bottleneck_share * (1.0 + 1e-12)) {
        bottleneck_epoch_[li] = round_epoch;
      }
    }
    for (std::size_t i = 0; i < unfrozen_.size();) {
      const Flow& f = slots_[unfrozen_[i]];
      bool on_bottleneck = false;
      const LinkId* path = path_arena_.data() + f.path_begin;
      for (std::uint32_t k = 0; k < f.path_len; ++k) {
        if (bottleneck_epoch_[static_cast<std::size_t>(path[k])] ==
            round_epoch) {
          on_bottleneck = true;
          break;
        }
      }
      if (on_bottleneck) {
        freeze(unfrozen_[i], bottleneck_share);
        unfrozen_[i] = unfrozen_.back();
        unfrozen_.pop_back();
      } else {
        ++i;
      }
    }
  }
  return rounds;
}

void FlowManager::record_recompute_metrics(
    // lts-lint: nondeterminism-ok(wall-clock type in the signature of the observability-only recording path)
    std::size_t rounds, std::chrono::steady_clock::time_point wall_begin) {
  auto& metrics = RecomputeMetrics::get();
  metrics.total.inc();
  metrics.rounds.observe(static_cast<double>(rounds));
  metrics.duration.observe(
      // lts-lint: nondeterminism-ok(wall-clock delta recorded into the obs histogram; values are observational only and never read back)
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin)
          .count());
}

void FlowManager::schedule_next_completion() {
  if (completion_event_ != sim::kInvalidEvent) {
    engine_.cancel(completion_event_);
    completion_event_ = sim::kInvalidEvent;
  }
  if (completion_heap_.empty()) return;
  // The heap top is the same minimum the old full scan computed; its eta is
  // relative to the last recompute, and every recompute rebuilds the heap,
  // so the offset base is always the current instant.
  completion_event_ =
      engine_.schedule_in(std::max(completion_heap_.front().eta, 0.0),
                          [this] { handle_completion_event(); });
}

void FlowManager::handle_completion_event() {
  completion_event_ = sim::kInvalidEvent;
  // A pending deferred recompute (some same-instant mutation queued before
  // this event) flushes first: bytes accrue at the old rates, then the
  // harvest below tests against the same fresh rates the eager solver would
  // have been using.
  const bool flushed = dirty_;
  if (flushed) {
    flush();
  } else {
    advance();
  }
  // Collect finished flows first: completion callbacks may start new flows,
  // which would invalidate any iteration state.
  std::vector<std::function<void()>> callbacks;
  bool removed = false;
  std::size_t w = 0;
  for (std::size_t i = 0; i < by_id_.size(); ++i) {
    const std::uint32_t s = by_id_[i];
    Flow& f = slots_[s];
    // A flow is done when its remaining bytes are negligible OR it would
    // finish within a nanosecond — the latter guards against zero-progress
    // event loops when remaining/rate underflows the clock's resolution.
    if (f.remaining <= std::max(kRemainingEpsilon, f.rate * 1e-9)) {
      if (f.on_complete) callbacks.push_back(std::move(f.on_complete));
      release_slot(s);
      ++completed_;
      removed = true;
    } else {
      by_id_[w++] = s;
    }
  }
  by_id_.resize(w);
  if (removed) {
    maybe_compact_arena();
    // One deferred recompute covers this harvest plus whatever flows the
    // callbacks below start at this same instant.
    mark_dirty();
  } else if (!flushed) {
    // Spurious wakeup: accumulated rounding pushed the true completion just
    // past this event. Recompute (rates are unchanged — they depend only on
    // the flow set — but remaining bytes moved) and reschedule, exactly as
    // the eager path did.
    recompute_rates();
    schedule_next_completion();
  }
  for (auto& cb : callbacks) cb();
}

}  // namespace lts::net
