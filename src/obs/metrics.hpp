// Run-wide metrics registry (counters, gauges, fixed-bucket histograms).
//
// The simulation layers measure themselves against this registry so that a
// whole run — scheduler, network, Chord routing, commit protocol — exports
// one machine-readable JSON document (schema asa-metrics/1, see
// write_metrics_json) that asareport and the bench-trajectory files share.
//
// Design constraints, in order:
//   1. Deterministic: instruments are keyed by (name, ordered label set)
//      in a std::map, values are integers, and export walks the map — two
//      runs with the same seed produce byte-identical JSON. No wall-clock
//      anywhere (sim-time only; fsmgen --profile is the one sanctioned
//      wall-clock producer and lives outside this registry's hot paths).
//   2. Free when off: components hold a `MetricsRegistry*` that is nullptr
//      when observability is disabled, so the instrumented hot paths cost
//      one pointer test. A disabled registry additionally routes every
//      instrument to a scratch slot (belt and braces for shared handles).
//   3. Hot sites hold resolved handles: find-or-create walks a
//      std::map keyed by (name, sorted labels), so an instrumented site
//      that fires per message or per commit resolves its instrument on
//      its first observation and keeps the Counter*/Histogram*. Instruments
//      are never invalidated once created (node-based map), so a handle
//      stays valid for the registry's lifetime; a component drops its
//      handles whenever set_metrics attaches a different registry. Cold
//      paths (snapshot mirroring, per-GUID counters, churn) use the
//      string API directly.
//
// Export streams through obs::JsonWriter (write_metrics_json); there is no
// intermediate document tree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace asa_repro::obs {

/// Label set: (key, value) pairs. Instruments sort them on registration so
/// `{{"a","1"},{"b","2"}}` and `{{"b","2"},{"a","1"}}` are the same series.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  /// Overwrite with an externally accumulated total (snapshot mirroring of
  /// always-on stats structs; idempotent across repeated snapshots).
  void set(std::uint64_t v) { value_ = v; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  friend class MetricsRegistry;
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(std::int64_t v) { value_ = v; }
  void add(std::int64_t v) { value_ += v; }
  [[nodiscard]] std::int64_t value() const { return value_; }

 private:
  friend class MetricsRegistry;
  std::int64_t value_ = 0;
};

/// Fixed-bucket histogram over unsigned values (sim-time microseconds,
/// hop counts, message sizes). Buckets are cumulative-style on export but
/// stored as per-bucket counts; the last bucket is the implicit +inf
/// overflow. Bounds are fixed at first registration of the series.
class Histogram {
 public:
  void observe(std::uint64_t v);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const {
    return bounds_;
  }
  /// Per-bucket counts; size is bounds().size() + 1 (overflow last).
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const {
    return counts_;
  }

  /// Upper-bound estimate of the q-quantile (0 < q <= 1) from the bucket
  /// counts: the smallest bucket bound b with cdf(b) >= q (max() for the
  /// overflow bucket). 0 when empty.
  [[nodiscard]] std::uint64_t quantile(double q) const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<std::uint64_t> bounds)
      : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}

  std::vector<std::uint64_t> bounds_;  // Ascending upper bounds.
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

/// Default bucket bounds for simulated-time latencies, in microseconds:
/// 100us .. 5s in a 1-2-5 progression.
[[nodiscard]] const std::vector<std::uint64_t>& latency_buckets_us();

/// Default bucket bounds for small cardinalities (route hops, attempts).
[[nodiscard]] const std::vector<std::uint64_t>& small_count_buckets();

class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Find-or-create. References remain valid for the registry's lifetime.
  /// On a disabled registry every call returns a shared scratch instrument
  /// that export ignores.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {},
                       const std::vector<std::uint64_t>& bounds =
                           latency_buckets_us());

  /// Fold `other` into this registry: counters and histograms add, gauges
  /// adopt the other's value. Series are matched by (name, labels);
  /// histogram bounds must agree — a mismatched series is skipped AND
  /// counted in the `metrics.merge_conflicts` counter so campaign
  /// aggregation cannot silently drop data (asareport surfaces it). Used
  /// by campaign drivers to aggregate per-seed registries
  /// deterministically.
  void merge(const MetricsRegistry& other);

  /// Deterministic walk in (name, labels) order.
  struct Series {
    const std::string& name;
    const Labels& labels;
  };
  void for_each_counter(
      const std::function<void(const Series&, const Counter&)>& fn) const;
  void for_each_gauge(
      const std::function<void(const Series&, const Gauge&)>& fn) const;
  void for_each_histogram(
      const std::function<void(const Series&, const Histogram&)>& fn) const;

  [[nodiscard]] std::size_t series_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  using Key = std::pair<std::string, Labels>;
  [[nodiscard]] static Key make_key(const std::string& name,
                                    const Labels& labels);

  bool enabled_;
  std::map<Key, Counter> counters_;
  std::map<Key, Gauge> gauges_;
  std::map<Key, Histogram> histograms_;
  Counter scratch_counter_;
  Gauge scratch_gauge_;
  std::map<std::vector<std::uint64_t>, Histogram> scratch_histograms_;
};

/// Metadata attached to an export: fixed-order (key, value) pairs the
/// producer chooses (tool name, seed, cluster shape). Values are strings;
/// producers must not put wall-clock time here (determinism contract).
using Meta = std::vector<std::pair<std::string, std::string>>;

class JsonWriter;

/// Write `meta` as the document's "meta" member.
void write_meta(JsonWriter& out, const Meta& meta);

/// Render the registry as one asa-metrics/1 JSON document:
///   {"schema":"asa-metrics/1","meta":{...},
///    "counters":[{"name","labels","value"}...],
///    "gauges":[...],
///    "histograms":[{"name","labels","count","sum","min","max",
///                   "buckets":[{"le",count}...,{"le":"inf",count}]}...]}
/// Series appear in registry (map) order; byte-identical across identical
/// runs. The writer form streams the document as the next value of `out`
/// (post-mortem bundles embed it); the string form is the indent-1 file
/// every tool writes, newline-terminated.
void write_metrics_json(JsonWriter& out, const MetricsRegistry& registry,
                        const Meta& meta);
[[nodiscard]] std::string write_metrics_json(const MetricsRegistry& registry,
                                             const Meta& meta);

}  // namespace asa_repro::obs
