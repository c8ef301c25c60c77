// One violation of each waivable rule, each carrying a justified waiver —
// both placements (trailing the flagged line, and on a standalone comment
// line directly above it) are exercised. Must lint clean under a virtual
// src/simcore/ path. Never built.
#include <chrono>
#include <unordered_map>

namespace lts::fixture {

// lts-lint: ordered-ok(pure lookup table keyed by id; never iterated, so hash order cannot surface)
std::unordered_map<int, int> lookup_;

void timed_section() {
  auto t0 = std::chrono::steady_clock::now();  // lts-lint: nondeterminism-ok(profiling harness only; value printed, never fed to sim state)
  (void)t0;
}

void guarded_fanout(ThreadPool& pool) {
  std::mutex m;
  int shared = 0;
  // lts-lint: shared-guarded(mutex: every write to shared happens under m)
  pool.parallel_for(8, [&](std::size_t) {
    std::lock_guard lock(m);
    ++shared;
  });
}

void partitioned_fanout(ThreadPool& pool) {
  std::vector<double> per_item(8, 0.0);
  // lts-lint: shared-guarded(partitioned: each worker writes only its own slot; no element is shared across workers)
  pool.parallel_for(8, [&](std::size_t i) {
    per_item[i] += 1.0;
  });
}

void watchdog_thread() {
  std::thread t([] {});  // lts-lint: thread-ok(fixture exercising the waiver path)
  t.join();
}

// R6: a Tsdb mutator that skips the epoch bump, justified (the fixture's
// pretend mutation is invisible to snapshots).
void Tsdb::touch_metadata(int series) {
  // lts-lint: epoch-ok(metadata-only rewrite: no sample or series-set change is observable through snapshot_features)
  series_[series] = series;
}

// R7: a thread-order-dependent sum accepted because the result feeds a
// tolerance-banded report, not replayed state.
double lossy_parallel_sum(ThreadPool& pool, const std::vector<double>& xs) {
  double total = 0.0;
  // lts-lint: shared-guarded(atomic: fixture pretends total is a relaxed atomic accumulated for diagnostics)
  // lts-lint: fp-order-ok(diagnostic-only total rendered at 1e-6 precision; never fed back into sim or label state)
  pool.parallel_for(xs.size(), [&](std::size_t i) { total += xs[i]; });
  return total;
}

// R8: a hot-path push_back loop whose growth is justified as one-time
// warm-up into a persistent buffer.
void predict_batch(const std::vector<double>& rows, std::vector<double>& out) {
  out.clear();
  for (const double r : rows) {
    // lts-lint: alloc-ok(persistent output buffer: cleared per batch with capacity retained from the first call)
    out.push_back(r);
  }
}

}  // namespace lts::fixture
