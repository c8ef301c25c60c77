// Fluid flow model with max-min fair bandwidth allocation.
//
// Rather than simulating packets, each transfer is a fluid "flow" with a
// current rate. Rates are recomputed whenever the set of active flows
// changes, using progressive filling (the classic max-min fair algorithm)
// extended with a per-flow cap of tcp_window / base_RTT — the bandwidth-delay
// product limit that makes long-RTT WAN paths slower per flow. This is the
// physical mechanism behind the paper's observation that network telemetry
// (RTT, tx/rx rates) predicts job completion time.
//
// Recomputation is deferred and batched: start()/cancel()/invalidate_rates()
// only mark the allocation stale and arm a same-timestamp engine hook, so a
// storm of same-instant mutations (a Spark stage opening M×N shuffle flows)
// pays one progressive fill instead of one per call. This is observationally
// identical to eager recomputation because no simulated time elapses between
// the mutations and the hook: byte accounting over a zero-length interval is
// unaffected by which intermediate rates were in force, and every accessor
// that exposes rates flushes the pending recompute first.
//
// The manager also maintains cumulative per-host transmit/receive byte
// counters (what node-exporter exposes as NIC counters) and an instantaneous
// utilization-dependent queueing-delay estimate per link (what inflates the
// ping mesh RTTs under load).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "simcore/engine.hpp"
#include "util/common.hpp"

namespace lts::net {

using FlowId = std::uint64_t;
inline constexpr FlowId kInvalidFlow = 0;

struct FlowOptions {
  /// TCP congestion-window proxy: a single flow's rate never exceeds
  /// tcp_window_bytes / base_rtt(src, dst).
  Bytes tcp_window_bytes = 16.0 * 1024 * 1024;
  /// Fixed per-host protocol stack latency added to each measured RTT
  /// (kernel, virtualization). One-way, seconds.
  SimTime host_stack_delay = 50e-6;
};

/// Snapshot of one flow's progress.
struct FlowInfo {
  VertexId src = kNoVertex;
  VertexId dst = kNoVertex;
  Bytes total = 0.0;
  Bytes transferred = 0.0;
  Rate rate = 0.0;
};

class FlowManager final : public sim::EventTarget {
 public:
  FlowManager(sim::Engine& engine, const Topology& topo,
              FlowOptions options = {});
  /// Member-wise copy of `other` (flows, rates, lazy byte accounting and
  /// lazy link sums verbatim) re-pointed at `engine` (a copy of other's
  /// engine) and `topo` (a copy of its topology). Reads only raw state:
  /// other's accessors, which flush and sum through const_cast or mutable
  /// state, are not called, so several threads may copy one manager as
  /// long as none of them queries it meanwhile.
  FlowManager(const FlowManager& other, sim::Engine& engine,
              const Topology& topo);
  ~FlowManager();

  FlowManager& operator=(const FlowManager&) = delete;

  /// Starts a transfer of `size` bytes from src to dst. `on_complete` is
  /// dispatched at the completion instant, once the last byte is
  /// delivered. Returns a handle usable with cancel()/info(). The rate
  /// recompute is deferred to a same-timestamp hook (or the first rate
  /// observation, whichever comes first), so batches of starts at one
  /// event time share a single progressive fill.
  FlowId start(VertexId src, VertexId dst, Bytes size,
               sim::Event on_complete = {});

  /// Aborts a flow; its completion record never fires. No-op if already
  /// finished. Deferred-batched like start().
  void cancel(FlowId id);

  /// Marks the max-min allocation stale against the topology's *current*
  /// link capacities; the next same-timestamp hook (or rate observation)
  /// re-runs the solver and reschedules the pending completion. Must be
  /// called after mutating link attributes (Topology::set_link_capacity /
  /// set_link_prop_delay), which the fault injector does mid-run — several
  /// same-instant calls (e.g. a site partition cutting many links) coalesce
  /// into one recompute. Byte accounting up to now uses the old rates, as
  /// physics requires.
  void invalidate_rates();

  bool active(FlowId id) const { return find_slot(id) != kNoSlot; }
  FlowInfo info(FlowId id) const;
  std::size_t num_active() const { return by_id_.size(); }
  std::uint64_t num_completed() const { return completed_; }

  /// Instantaneous allocated-rate / capacity for a link, in [0, 1]. The
  /// first read after a rate recompute sums every link's allocation in one
  /// pass over the flows; later reads until the next recompute are O(1).
  double link_utilization(LinkId link) const;

  /// Current one-way queueing delay estimate for a link.
  SimTime link_queue_delay(LinkId link) const;

  /// Measures RTT between two hosts right now: propagation + current
  /// queueing on the forward and reverse routes + stack latency at both
  /// ends. This is what the ping-mesh exporter samples (plus noise).
  SimTime current_rtt(VertexId a, VertexId b) const;

  /// Base (uncongested) RTT between two hosts.
  SimTime base_rtt(VertexId a, VertexId b) const;

  /// Cumulative bytes transmitted / received by a host since construction
  /// (or since its last counter reset). Accurate as of the current engine
  /// time. O(flows terminating at the host) via the per-host flow index.
  Bytes host_tx_bytes(VertexId host) const;
  Bytes host_rx_bytes(VertexId host) const;

  /// Zeroes a host's cumulative NIC counters, as a reboot does to
  /// /proc/net/dev. The fault injector calls this when a crashed node
  /// recovers; consumers of the exported counter series must handle the
  /// resulting reset (Tsdb::rate does).
  void reset_host_counters(VertexId host);

  /// Sum of current send rates of flows originating at / arriving at host.
  /// O(flows on that host), not O(all flows).
  Rate host_tx_rate(VertexId host) const;
  Rate host_rx_rate(VertexId host) const;

  /// Number of active flows terminating at this host (either direction) —
  /// the passive flow-level statistic of the paper's §8 telemetry wishlist.
  /// O(1) from the per-host index counters.
  std::size_t host_active_flows(VertexId host) const;

  const Topology& topology() const { return *topo_; }

  void on_event(const sim::Event& event) override;
  const char* target_name() const override { return "FlowManager"; }

 private:
  /// Copies every member; the rebinding constructor above re-points the
  /// collaborators.
  FlowManager(const FlowManager&) = default;

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Event codes of this manager's records.
  enum Code : std::uint8_t { kFlush, kCompletion };

  struct Flow {
    FlowId id = kInvalidFlow;
    VertexId src = kNoVertex;
    VertexId dst = kNoVertex;
    Bytes total = 0.0;
    Bytes remaining = 0.0;
    Rate rate = 0.0;
    Rate cap = 0.0;  // tcp window / base rtt
    // Path span into path_arena_ (one contiguous block per flow).
    std::uint32_t path_begin = 0;
    std::uint32_t path_len = 0;
    // Intrusive per-host list links (slot indices): the tx list of src and
    // the rx list of dst. Tail insertion keeps both lists in FlowId order,
    // so per-host floating-point sums add in the same order as a full scan
    // in id order would.
    std::uint32_t tx_prev = kNoSlot;
    std::uint32_t tx_next = kNoSlot;
    std::uint32_t rx_prev = kNoSlot;
    std::uint32_t rx_next = kNoSlot;
    sim::Event on_complete;
  };

  /// Applies elapsed time to all flows (byte accounting) up to engine.now().
  /// Always safe while dirty: a stale allocation implies the last mutation
  /// happened at the current instant, so the elapsed interval is zero.
  void advance();

  /// Marks the allocation stale and arms the same-timestamp flush hook.
  /// Idempotent; the hook runs after every already-queued event at this
  /// instant, which is what batches same-time mutation storms.
  void mark_dirty();

  /// Runs the deferred recompute now (byte accounting first, at the old
  /// rates) and reschedules the completion event. No-op when clean.
  void flush();

  /// Accessors that expose rates call this so deferred state is never
  /// observable. Logically const: flushing only materializes the allocation
  /// the eager solver would already have computed.
  void ensure_fresh() const { const_cast<FlowManager*>(this)->flush(); }

  /// Progressive-filling max-min fair allocation with per-flow caps.
  /// Dispatches to the core solver, adding instrumentation when the
  /// observability registry is enabled.
  void recompute_rates();

  /// The solver proper; returns the number of filling rounds it ran.
  std::size_t recompute_rates_core();

  /// One progressive fill over every active flow, in ascending FlowId
  /// order. `fill_epoch` stamps this fill's residual state; epoch_ supplies
  /// the per-round stamps. Leaves the earliest completion in next_eta_.
  /// Returns the number of rounds.
  std::size_t fill_flows(std::uint64_t fill_epoch);

  /// Sums the last fill's rates onto link_alloc_ if no read has done so
  /// since that fill. Logically const, like ensure_fresh().
  void sum_link_alloc() const;

  /// (Re)schedules the single pending completion event at next_eta_.
  void schedule_next_completion();

  void handle_completion_event();

  /// Slot index for a live flow id, or kNoSlot. Binary search over the
  /// id-ordered index.
  std::uint32_t find_slot(FlowId id) const;

  std::uint32_t acquire_slot();
  /// Unlinks a flow from both host lists and returns its slot to the free
  /// list. Does not touch by_id_ (callers compact that themselves).
  void release_slot(std::uint32_t slot);
  /// Rewrites path_arena_ without the dead spans once they dominate it.
  void maybe_compact_arena();

  /// Outlined so an unobserved recompute pays only a relaxed load and a
  /// predictable branch for its instrumentation.
  __attribute__((noinline)) void record_recompute_metrics(
      // lts-lint: nondeterminism-ok(wall-clock type names the obs-only timing argument; no simulation state depends on it)
      std::size_t rounds, std::chrono::steady_clock::time_point wall_begin);

  sim::Engine* engine_;
  const Topology* topo_;
  FlowOptions options_;
  // Cached once at construction (see simcore::Engine): skips the registry's
  // static-init guard on every recompute.
  const std::atomic<bool>* obs_enabled_;
  std::uint32_t target_;

  std::uint64_t next_id_ = 1;
  std::uint64_t completed_ = 0;

  // Flat slot-map flow storage: flows live in slots_, dead slots are
  // recycled LIFO, and by_id_ lists live slots in ascending FlowId order —
  // the deterministic iteration order every solver pass and byte-accounting
  // sweep uses (ids are handed out monotonically, so appends keep it
  // sorted without any per-insert work).
  std::vector<Flow> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> by_id_;
  // All live flows' paths, one contiguous span each.
  std::vector<LinkId> path_arena_;
  std::size_t live_path_words_ = 0;

  // Per-host intrusive flow lists (heads/tails hold slot indices).
  std::vector<std::uint32_t> tx_head_;
  std::vector<std::uint32_t> tx_tail_;
  std::vector<std::uint32_t> rx_head_;
  std::vector<std::uint32_t> rx_tail_;
  std::vector<std::uint32_t> tx_count_;
  std::vector<std::uint32_t> rx_count_;

  SimTime last_update_ = 0.0;
  sim::EventId completion_event_ = sim::kInvalidEvent;
  sim::EventId flush_event_ = sim::kInvalidEvent;
  bool dirty_ = false;

  // Epoch-stamped per-link solver state: instead of O(links) refills per
  // round, a link's residual/count/bottleneck-mark entries are valid only
  // when their stamp matches the current fill/round epoch, making per-round
  // work O(unfrozen flows × path length).
  std::uint64_t epoch_ = 0;
  std::vector<Rate> residual_;
  std::vector<std::uint64_t> residual_epoch_;
  std::vector<int> link_count_;
  std::vector<std::uint64_t> count_epoch_;
  std::vector<std::uint64_t> bottleneck_epoch_;
  // Earliest remaining / rate over the last fill's flows: the delay, from
  // that fill, of the next completion. Only meaningful with flows active.
  SimTime next_eta_ = 0.0;
  // Per-link allocated rate, summed lazily: a fill only marks the sums
  // stale, and the first link_utilization() read after it adds the fill's
  // rates in FlowId order, as an eager sum at the fill would have. Every
  // mutation of the flow set marks the allocation dirty, so a flushed read
  // always sums exactly the flows and rates of the last fill.
  mutable std::vector<Rate> link_alloc_;
  mutable bool link_alloc_stale_ = false;
  // Solver scratch, reused across recomputes to stay allocation-free on the
  // hot path.
  std::vector<LinkId> touched_links_;
  std::vector<std::uint32_t> unfrozen_;
  // Completion notifications of one harvest, dispatched after it.
  std::vector<sim::Event> finished_;

  mutable std::vector<Bytes> host_tx_;
  mutable std::vector<Bytes> host_rx_;
};

}  // namespace lts::net
