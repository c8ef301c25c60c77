#include "obs/metrics.hpp"

#include <algorithm>

#include "util/string_util.hpp"

namespace lts::obs {

namespace {

/// Prometheus label-value escaping: backslash, double-quote, newline.
std::string escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// HELP-line escaping: backslash and newline only (quotes are literal).
std::string escape_help(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += escape_label_value(v);
    out += '"';
  }
  out += '}';
  return out;
}

/// Same as render_labels but with one extra pair appended (histogram `le`).
std::string render_labels_with(const Labels& labels, const std::string& key,
                               const std::string& value) {
  Labels extended = labels;
  extended[key] = value;
  return render_labels(extended);
}

std::string format_value(double v) { return strformat("%.17g", v); }

std::string format_bound(double b) { return strformat("%g", b); }

const char* kind_name(bool is_counter, bool is_gauge) {
  return is_counter ? "counter" : (is_gauge ? "gauge" : "histogram");
}

}  // namespace

void Histogram::observe(double v) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  // First boundary >= v; everything above the last boundary lands in +Inf.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

Histogram::Histogram(const std::atomic<bool>* enabled,
                     std::vector<double> bounds)
    : enabled_(enabled),
      bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1) {
  LTS_REQUIRE(!bounds_.empty(), "Histogram: need at least one boundary");
  LTS_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                  std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                      bounds_.end(),
              "Histogram: boundaries must be strictly increasing");
}

MetricsRegistry::Family& MetricsRegistry::family_for(const std::string& name,
                                                     Kind kind,
                                                     const std::string& help) {
  LTS_REQUIRE(!name.empty(), "MetricsRegistry: empty metric name");
  auto it = families_.find(name);
  if (it == families_.end()) {
    Family family;
    family.kind = kind;
    family.help = help;
    it = families_.emplace(name, std::move(family)).first;
  } else {
    LTS_REQUIRE(it->second.kind == kind,
                "MetricsRegistry: metric re-registered as a different kind: " +
                    name);
    if (it->second.help.empty()) it->second.help = help;
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels,
                                  const std::string& help) {
  std::lock_guard lock(mutex_);
  Family& family = family_for(name, Kind::kCounter, help);
  auto [it, inserted] = family.children.try_emplace(render_labels(labels));
  if (inserted) {
    it->second.labels = labels;
    it->second.counter.reset(new Counter(&enabled_));
  }
  return *it->second.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels,
                              const std::string& help) {
  std::lock_guard lock(mutex_);
  Family& family = family_for(name, Kind::kGauge, help);
  auto [it, inserted] = family.children.try_emplace(render_labels(labels));
  if (inserted) {
    it->second.labels = labels;
    it->second.gauge.reset(new Gauge(&enabled_));
  }
  return *it->second.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::vector<double>& boundaries,
                                      const Labels& labels,
                                      const std::string& help) {
  std::lock_guard lock(mutex_);
  Family& family = family_for(name, Kind::kHistogram, help);
  if (family.children.empty()) {
    family.boundaries = boundaries;
  } else {
    LTS_REQUIRE(family.boundaries == boundaries,
                "MetricsRegistry: histogram boundaries differ from first "
                "registration: " +
                    name);
  }
  auto [it, inserted] = family.children.try_emplace(render_labels(labels));
  if (inserted) {
    it->second.labels = labels;
    it->second.histogram.reset(new Histogram(&enabled_, boundaries));
  }
  return *it->second.histogram;
}

std::size_t MetricsRegistry::num_instruments() const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (const auto& [name, family] : families_) n += family.children.size();
  return n;
}

void MetricsRegistry::reset_values() {
  std::lock_guard lock(mutex_);
  for (auto& [name, family] : families_) {
    for (auto& [key, child] : family.children) {
      if (child.counter) child.counter->value_.store(0.0);
      if (child.gauge) child.gauge->value_.store(0.0);
      if (child.histogram) {
        for (auto& b : child.histogram->buckets_) b.store(0);
        child.histogram->count_.store(0);
        child.histogram->sum_.store(0.0);
      }
    }
  }
}

std::string MetricsRegistry::prometheus_text() const {
  std::lock_guard lock(mutex_);
  std::string out;
  for (const auto& [name, family] : families_) {
    const bool is_counter = family.kind == Kind::kCounter;
    const bool is_gauge = family.kind == Kind::kGauge;
    if (!family.help.empty()) {
      out += "# HELP " + name + " " + escape_help(family.help) + "\n";
    }
    out += "# TYPE " + name + " ";
    out += kind_name(is_counter, is_gauge);
    out += "\n";
    for (const auto& [key, child] : family.children) {
      if (child.counter) {
        out += name + key + " " + format_value(child.counter->value()) + "\n";
      } else if (child.gauge) {
        out += name + key + " " + format_value(child.gauge->value()) + "\n";
      } else {
        const Histogram& h = *child.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.boundaries().size(); ++i) {
          cumulative += h.bucket_count(i);
          out += name + "_bucket" +
                 render_labels_with(child.labels, "le",
                                    format_bound(h.boundaries()[i])) +
                 " " + std::to_string(cumulative) + "\n";
        }
        out += name + "_bucket" +
               render_labels_with(child.labels, "le", "+Inf") + " " +
               std::to_string(h.count()) + "\n";
        out += name + "_sum" + key + " " + format_value(h.sum()) + "\n";
        out += name + "_count" + key + " " + std::to_string(h.count()) + "\n";
      }
    }
  }
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace lts::obs
