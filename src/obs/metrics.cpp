#include "obs/metrics.hpp"

#include <algorithm>

#include "obs/json.hpp"

namespace asa_repro::obs {

void Histogram::observe(std::uint64_t v) {
  // First bucket whose upper bound holds v; past-the-end = overflow.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
  if (v < min_) min_ = v;
  if (v > max_) max_ = v;
}

std::uint64_t Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Smallest rank covering the quantile, in [1, count_].
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_) + 0.999999999);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= rank) {
      return i < bounds_.size() ? bounds_[i] : max_;
    }
  }
  return max_;
}

const std::vector<std::uint64_t>& latency_buckets_us() {
  static const std::vector<std::uint64_t> kBuckets = {
      100,     200,     500,     1'000,     2'000,     5'000,
      10'000,  20'000,  50'000,  100'000,   200'000,   500'000,
      1'000'000, 2'000'000, 5'000'000};
  return kBuckets;
}

const std::vector<std::uint64_t>& small_count_buckets() {
  static const std::vector<std::uint64_t> kBuckets = {1, 2,  3,  4,  6,
                                                      8, 12, 16, 24, 32};
  return kBuckets;
}

MetricsRegistry::Key MetricsRegistry::make_key(const std::string& name,
                                               const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  return {name, std::move(sorted)};
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  if (!enabled_) return scratch_counter_;
  return counters_[make_key(name, labels)];
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  if (!enabled_) return scratch_gauge_;
  return gauges_[make_key(name, labels)];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const Labels& labels,
                                      const std::vector<std::uint64_t>& bounds) {
  if (!enabled_) {
    const auto it = scratch_histograms_.find(bounds);
    if (it != scratch_histograms_.end()) return it->second;
    return scratch_histograms_.emplace(bounds, Histogram(bounds))
        .first->second;
  }
  const Key key = make_key(name, labels);
  const auto it = histograms_.find(key);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(key, Histogram(bounds)).first->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  if (!enabled_) return;
  for (const auto& [key, c] : other.counters_) {
    counters_[key].value_ += c.value_;
  }
  for (const auto& [key, g] : other.gauges_) {
    gauges_[key].value_ = g.value_;
  }
  for (const auto& [key, h] : other.histograms_) {
    const auto it = histograms_.find(key);
    if (it == histograms_.end()) {
      histograms_.emplace(key, h);
      continue;
    }
    Histogram& mine = it->second;
    if (mine.bounds_ != h.bounds_) {
      // Incompatible series: dropping it silently would corrupt campaign
      // aggregates, so leave an audit trail the report can surface.
      counters_[make_key("metrics.merge_conflicts", {})].value_ += 1;
      continue;
    }
    for (std::size_t i = 0; i < mine.counts_.size(); ++i) {
      mine.counts_[i] += h.counts_[i];
    }
    mine.count_ += h.count_;
    mine.sum_ += h.sum_;
    mine.min_ = std::min(mine.min_, h.min_);
    mine.max_ = std::max(mine.max_, h.max_);
  }
}

void MetricsRegistry::for_each_counter(
    const std::function<void(const Series&, const Counter&)>& fn) const {
  for (const auto& [key, value] : counters_) {
    fn(Series{key.first, key.second}, value);
  }
}

void MetricsRegistry::for_each_gauge(
    const std::function<void(const Series&, const Gauge&)>& fn) const {
  for (const auto& [key, value] : gauges_) {
    fn(Series{key.first, key.second}, value);
  }
}

void MetricsRegistry::for_each_histogram(
    const std::function<void(const Series&, const Histogram&)>& fn) const {
  for (const auto& [key, value] : histograms_) {
    fn(Series{key.first, key.second}, value);
  }
}

namespace {

void write_labels(JsonWriter& out, const Labels& labels) {
  out.begin_object();
  for (const auto& [k, v] : labels) out.member(k, v);
  out.end_object();
}

void write_series(JsonWriter& out, const MetricsRegistry::Series& s) {
  out.member("name", s.name).key("labels");
  write_labels(out, s.labels);
}

}  // namespace

void write_meta(JsonWriter& out, const Meta& meta) {
  out.key("meta");
  write_labels(out, meta);
}

void write_metrics_json(JsonWriter& out, const MetricsRegistry& registry,
                        const Meta& meta) {
  out.begin_object().member("schema", "asa-metrics/1");
  write_meta(out, meta);

  out.key("counters").begin_array();
  registry.for_each_counter([&](const MetricsRegistry::Series& s,
                                const Counter& c) {
    out.begin_object();
    write_series(out, s);
    out.member("value", c.value()).end_object();
  });
  out.end_array();

  out.key("gauges").begin_array();
  registry.for_each_gauge([&](const MetricsRegistry::Series& s,
                              const Gauge& g) {
    out.begin_object();
    write_series(out, s);
    out.member("value", g.value()).end_object();
  });
  out.end_array();

  out.key("histograms").begin_array();
  registry.for_each_histogram([&](const MetricsRegistry::Series& s,
                                  const Histogram& h) {
    out.begin_object();
    write_series(out, s);
    out.member("count", h.count())
        .member("sum", h.sum())
        .member("min", h.min())
        .member("max", h.max());
    out.key("buckets").begin_array();
    const auto& bounds = h.bounds();
    const auto& counts = h.bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      out.begin_object();
      if (i < bounds.size()) {
        out.member("le", bounds[i]);
      } else {
        out.member("le", "inf");
      }
      out.member("count", counts[i]).end_object();
    }
    out.end_array().end_object();
  });
  out.end_array();

  out.end_object();
}

std::string write_metrics_json(const MetricsRegistry& registry,
                               const Meta& meta) {
  std::string doc;
  JsonWriter out(doc, 1);
  write_metrics_json(out, registry, meta);
  doc += '\n';
  return doc;
}

}  // namespace asa_repro::obs
