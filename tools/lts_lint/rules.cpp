#include "lts_lint/rules.hpp"

#include <algorithm>
#include <tuple>

namespace lts::lint {

void RuleContext::report(std::size_t line, const std::string& rule,
                         const std::string& message) {
  for (Waiver& w : waivers) {
    if (w.rule == rule && w.target == line) {
      w.used = true;
      return;
    }
  }
  diags.push_back({file->path, line, rule, message});
}

bool RuleContext::consume_token(const std::string& token, std::size_t line) {
  for (Waiver& w : waivers) {
    if (w.token == token && w.target == line) {
      w.used = true;
      return true;
    }
  }
  return false;
}

const std::vector<Rule>& rule_registry() {
  static const std::vector<Rule> rules = {
      {{"R1", "nondeterminism-sources",
        "no nondeterminism sources (random_device, rand, wall clocks, "
        "getenv) in src/ outside the obs/CLI layers",
        "Identical seeds must yield identical telemetry traces and labels; "
        "any ambient entropy or wall-clock read in simulation/decision code "
        "breaks golden replay and silently skews training data.",
        "auto seed = std::random_device{}();",
        "nondeterminism-ok"},
       check_determinism},
      {{"R2", "unordered-containers",
        "no std::unordered_map/set in determinism-critical dirs (simcore, "
        "net, core, cluster, spark, tenant), including iteration over a "
        "companion header's unordered members",
        "Hash-iteration order is implementation-defined; if it reaches "
        "event dispatch, scheduling decisions, or telemetry output, replay "
        "diverges across standard libraries and ASLR runs.",
        "for (const auto& [id, flow] : flows_by_id_)  // unordered_map",
        "ordered-ok"},
       check_ordering},
      {{"R3", "obs-hot-path",
        "obs instrumentation in hot paths (simcore, net) must follow the "
        "static-Metrics-struct / record_* / cached-enabled-flag pattern",
        "Instrument registration does a registry lookup under a mutex; "
        "doing it per event serializes the simulator. Mutations belong in "
        "an outlined record_* function gated on the cached enabled flag.",
        "obs::counter(\"events\").inc();  // inside the dispatch loop",
        "obs-gated"},
       check_obs},
      {{"R4", "concurrency-hygiene",
        "raw std::thread/detach() outside src/util/thread_pool; "
        "parallel_for lambdas with by-reference captures must declare a "
        "sharing discipline",
        "All parallelism flows through ThreadPool so worker count stays a "
        "pure performance knob. A [&] capture without a declared strategy "
        "(mutex, atomic, partitioned) is a data race "
        "waiting for a reviewer to miss it.",
        "pool.parallel_for(n, [&](std::size_t i) { total += x[i]; });",
        "shared-guarded"},
       check_concurrency},
      {{"R5", "header-hygiene",
        "headers carry #pragma once (or an include guard) and no "
        "file-scope `using namespace`",
        "A header without a guard breaks the one-definition rule the first "
        "time two translation units meet it; `using namespace` leaks into "
        "every includer.",
        "using namespace std;  // at file scope in a .hpp", ""},
       check_hygiene},
      {{"R6", "epoch-protocol",
        "public mutators of epoch-guarded state (Tsdb series, exporter "
        "shaping knobs, FlowManager flow/link state) must bump the epoch "
        "or mark the rate cache dirty",
        "The batched serving path caches feature snapshots keyed on "
        "Tsdb::epoch(), and the max-min solver caches rates behind "
        "FlowManager's dirty flag. A public mutation that skips the bump "
        "serves stale predictions or stale rates -- the exact bug class "
        "PR 6/7's audit tests catch dynamically, checked statically here.",
        "void Tsdb::drop_series(...) { series_.erase(it); }  // no ++epoch_",
        "epoch-ok"},
       check_epoch},
      {{"R7", "fp-reduction-order",
        "no std::reduce/transform_reduce, FP accumulation inside "
        "parallel_for lambdas, or std::accumulate over unordered "
        "iteration in determinism-critical dirs",
        "Floating-point addition is not associative; any reduction whose "
        "operand order depends on thread interleaving or hash order makes "
        "rates and features differ across runs at the ULP level, which the "
        "byte-identical golden replay then rejects.",
        "double total = std::reduce(par_unseq, v.begin(), v.end());",
        "fp-order-ok"},
       check_fp_order},
      {{"R8", "hot-path-allocation",
        "no new/make_unique/make_shared/std::function construction or "
        "un-reserved push_back loops inside declared hot-path functions "
        "(recompute_rates*, fill_flows, predict_batch, schedule_many*, "
        "schedule_batch, Engine::step/run)",
        "The scale arc's budgets (rate solve at 100k flows, batched "
        "serving throughput) assume the steady state allocates nothing; "
        "an allocator call or growth-doubling loop inside these functions "
        "turns O(1) amortized costs into latency spikes under load.",
        "out.push_back(rate);  // in a loop, no out.reserve(n) above",
        "alloc-ok"},
       check_alloc},
  };
  return rules;
}

const std::map<std::string, std::string>& waiver_tokens() {
  static const std::map<std::string, std::string> tokens = [] {
    std::map<std::string, std::string> t;
    for (const Rule& r : rule_registry()) {
      if (!r.info.waiver.empty()) t.emplace(r.info.waiver, r.info.id);
    }
    // R4 accepts two tokens: thread-ok for raw-thread escapes,
    // shared-guarded for declared sharing disciplines.
    t.emplace("thread-ok", "R4");
    return t;
  }();
  return tokens;
}

const Rule* find_rule(const std::string& id_or_name) {
  for (const Rule& r : rule_registry()) {
    if (r.info.id == id_or_name || r.info.name == id_or_name) return &r;
  }
  return nullptr;
}

std::vector<Diagnostic> run_rules(const FileModel& file,
                                  const ProjectModel& project,
                                  bool check_unused_waivers) {
  RuleContext ctx;
  ctx.file = &file;
  ctx.project = &project;
  ctx.companion = project.companion_of(file.path);
  ctx.waivers = file.waivers;
  ctx.diags = file.waiver_diags;

  for (const Rule& r : rule_registry()) {
    r.check(ctx);
  }

  if (check_unused_waivers) {
    for (const Waiver& w : ctx.waivers) {
      if (!w.used) {
        ctx.diags.push_back(
            {file.path, w.line, "waiver-unused",
             "waiver '" + w.token +
                 "' suppresses nothing: remove it (stale waivers hide "
                 "future violations)"});
      }
    }
  }

  std::sort(ctx.diags.begin(), ctx.diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.path, a.line, a.rule) <
                     std::tie(b.path, b.line, b.rule);
            });
  return ctx.diags;
}

}  // namespace lts::lint
