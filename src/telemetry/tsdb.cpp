#include "telemetry/tsdb.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace lts::telemetry {

namespace {

obs::Counter& out_of_order_counter() {
  static obs::Counter& c = obs::counter(
      "telemetry_out_of_order_dropped_total", {},
      "Samples dropped because they arrived with a timestamp older than the "
      "newest retained sample of their series (delayed exporter pipeline)");
  return c;
}

obs::Counter& counter_reset_counter() {
  static obs::Counter& c = obs::counter(
      "telemetry_counter_resets_total", {},
      "Cumulative-counter resets observed by Tsdb::rate (a sample lower "
      "than its predecessor, e.g. a NIC counter restarting after a node "
      "crash/recovery)");
  return c;
}

}  // namespace

Tsdb::Tsdb(std::size_t series_capacity)
    : series_capacity_(series_capacity),
      directory_(std::make_shared<Directory>()) {
  // Touch the correctness counters so a metrics export always carries the
  // families (at zero) instead of omitting them until the first incident.
  out_of_order_counter();
  counter_reset_counter();
}

std::string encode_series_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  key += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) key += ',';
    first = false;
    key += k;
    key += "=\"";
    key += v;
    key += '"';
  }
  key += '}';
  return key;
}

SeriesId Tsdb::intern(const std::string& name, const Labels& labels) {
  std::string key = encode_series_key(name, labels);
  if (const auto it = directory_->ids.find(key);
      it != directory_->ids.end()) {
    return it->second;
  }
  if (directory_.use_count() > 1) {
    directory_ = std::make_shared<Directory>(*directory_);
  }
  const auto id = static_cast<SeriesId>(directory_->pairs.size());
  directory_->ids.emplace(std::move(key), id);
  directory_->pairs.emplace_back(name, labels);
  return id;
}

void Tsdb::append(SeriesId id, SimTime t, double v) {
  LTS_REQUIRE(id < directory_->pairs.size(), "Tsdb: unknown series id");
  if (id >= series_.size()) series_.resize(id + 1, Series(series_capacity_));
  Series& series = series_[id];
  if (series.empty()) {
    // First append: the series comes into being (a first sample is never
    // late, so it is always accepted below).
    by_name_[directory_->pairs[id].first].push_back(id);
    ++num_series_;
  }
  if (!series.append(t, v)) {
    out_of_order_counter().inc();
    ++samples_dropped_;
    return;
  }
  ++samples_appended_;
}

const Series* Tsdb::find(const std::string& name, const Labels& labels) const {
  const auto it = directory_->ids.find(encode_series_key(name, labels));
  if (it == directory_->ids.end() || it->second >= series_.size()) {
    return nullptr;
  }
  const Series& series = series_[it->second];
  return series.empty() ? nullptr : &series;
}

std::vector<std::pair<Labels, const Series*>> Tsdb::select(
    const std::string& name) const {
  std::vector<std::pair<Labels, const Series*>> out;
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return out;
  for (const SeriesId id : it->second) {
    out.emplace_back(directory_->pairs[id].second, &series_[id]);
  }
  return out;
}

std::optional<double> Tsdb::latest(const std::string& name,
                                   const Labels& labels) const {
  const Series* s = find(name, labels);
  if (s == nullptr || s->empty()) return std::nullopt;
  return s->latest().v;
}

std::optional<SimTime> Tsdb::latest_time(const std::string& name,
                                         const Labels& labels) const {
  const Series* s = find(name, labels);
  if (s == nullptr || s->empty()) return std::nullopt;
  return s->latest().t;
}

double Tsdb::rate(const std::string& name, const Labels& labels, SimTime now,
                  SimTime window) const {
  const Series* s = find(name, labels);
  if (s == nullptr) return 0.0;
  const auto [first, last] = s->window(now - window, now);
  if (last - first < 2) return 0.0;
  const Sample& oldest = s->at(first);
  const Sample& newest = s->at(last - 1);
  // Prometheus rate() semantics for monotone counters: a sample lower than
  // its predecessor means the counter reset (the exporting host rebooted)
  // and restarted from zero, so the post-reset value IS the increase since
  // the reset. Summing adjacent increases with that correction keeps the
  // rate nonnegative instead of reporting one huge negative "throughput".
  const std::size_t resets = s->num_decreases_between(oldest.t, newest.t);
  double increase;
  if (resets == 0) {
    // The common monotone case stays the plain endpoint difference: summing
    // adjacent deltas is algebraically equal but not bit-identical, and the
    // golden replay trace depends on these exact values.
    increase = newest.v - oldest.v;
  } else {
    counter_reset_counter().inc(static_cast<double>(resets));
    increase = 0.0;
    for (std::size_t i = first + 1; i < last; ++i) {
      const double dv = s->at(i).v - s->at(i - 1).v;
      increase += dv >= 0.0 ? dv : s->at(i).v;
    }
  }
  const double dt = newest.t - oldest.t;
  if (dt <= 0.0) return 0.0;
  return increase / dt;
}

namespace {
std::optional<std::vector<double>> window_values(const Series* s, SimTime now,
                                                 SimTime window) {
  if (s == nullptr) return std::nullopt;
  const auto [first, last] = s->window(now - window, now);
  if (first == last) return std::nullopt;
  std::vector<double> values;
  values.reserve(last - first);
  for (std::size_t i = first; i < last; ++i) values.push_back(s->at(i).v);
  return values;
}
}  // namespace

std::optional<double> Tsdb::avg_over_time(const std::string& name,
                                          const Labels& labels, SimTime now,
                                          SimTime window) const {
  const auto values = window_values(find(name, labels), now, window);
  if (!values) return std::nullopt;
  return mean(*values);
}

std::optional<double> Tsdb::max_over_time(const std::string& name,
                                          const Labels& labels, SimTime now,
                                          SimTime window) const {
  const auto values = window_values(find(name, labels), now, window);
  if (!values) return std::nullopt;
  return max_of(*values);
}

std::optional<double> Tsdb::stddev_over_time(const std::string& name,
                                             const Labels& labels, SimTime now,
                                             SimTime window) const {
  const auto values = window_values(find(name, labels), now, window);
  if (!values) return std::nullopt;
  return stddev(*values);
}

}  // namespace lts::telemetry
