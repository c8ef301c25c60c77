// R8 fixture: allocations inside declared hot-path functions. Linted under
// any virtual path (the rule keys on function names, not directories).
// Never built.
#include <memory>
#include <vector>

namespace lts::fixture {

// Fires four ways: new, make_unique, std::function, un-reserved push_back
// in a loop.
void recompute_rates(std::vector<double>& out, std::size_t n) {
  double* scratch = new double[n];
  auto owned = std::make_unique<double[]>(n);
  std::function<double(double)> f = [](double x) { return x; };
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(f(scratch[i]));
  }
  delete[] scratch;
}

// Clean: the loop's container was reserved in this body first.
void predict_batch(std::vector<double>& out, std::size_t n) {
  out.clear();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<double>(i));
  }
}

// Fires through the malformed waiver (unknown token), which must not
// suppress; the braceless loop form must also be caught.
void schedule_many(std::vector<int>& acc, int n) {
  // lts-lint: allocation-ok(wrong token name)
  for (int i = 0; i < n; ++i) acc.push_back(i);
}

// Clean: identical body, but the name is not on the hot-path list.
void build_report(std::vector<double>& out, std::size_t n) {
  double* scratch = new double[n];
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(scratch[i]);
  }
  delete[] scratch;
}

// Fires: engine dispatch is hot by (class, name), not name alone.
void Engine::step(std::vector<int>& pending) {
  auto task = std::make_shared<int>(0);
  pending.push_back(*task);
}

// Fires: scheduling is on the per-event path too; a closure wrapped per
// scheduled event is the handler map this rule keeps out of the engine.
int Engine::schedule_at(double t, int payload) {
  std::function<void()> handler = [payload] { (void)payload; };
  return static_cast<int>(t) + (handler ? 1 : 0);
}

// Fires: a Spark app's steps are on the per-event path as well, by
// (class, name): a closure per step, or a counter shared between steps,
// is what the step records replaced.
void SparkApp::on_event(int code) {
  std::function<void()> resume = [code] { (void)code; };
  resume();
}

int SparkApp::park(int stage) {
  auto inputs = std::make_shared<int>(stage);
  return *inputs;
}

// Clean: submitting runs once per job, not once per event.
void SparkApp::submit(std::vector<int>& steps, int n) {
  auto first = std::make_shared<int>(n);
  steps.push_back(*first);
}

// Fires: the flat kernel's walk is hot by (class, name), and a template
// member counts like any other; a per-call scratch vector is the
// allocation its stack lanes avoid.
template <FlatEnsemble::Fold kFold>
void FlatEnsemble::walk_block(const double* x, std::size_t rows) const {
  auto lanes = std::make_unique<unsigned[]>(rows);
  lanes[0] = static_cast<unsigned>(x[0]);
}

// Fires: the per-tree entry point is on the same walk.
void FlatEnsemble::tree_values(std::vector<double>& out, std::size_t n) const {
  for (std::size_t t = 0; t < n; ++t) out.push_back(value_[t]);
}

// Clean: packing a tree runs once per fit, and a free `predict` is not
// the kernel's.
void FlatEnsemble::add_tree(std::vector<double>& values, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) values.push_back(0.0);
}

double predict(std::vector<double>& out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out.push_back(0.0);
  return out.back();
}

}  // namespace lts::fixture
