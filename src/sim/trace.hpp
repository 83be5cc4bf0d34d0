// Structured event tracing for simulations.
//
// Protocol components emit (time, node, category, detail) records; tests
// and benches query or dump them. Tracing is opt-in and cheap when off.
//
// Categories are interned to small integer ids on record, with a
// per-category index of event positions, so the hot queries — count() and
// for_each_in_category() — are O(1) lookups instead of O(events) string
// scans (chaos campaigns record hundreds of thousands of events and check
// categories after every seed).
//
// Besides the human-readable dump() the trace serializes to JSONL (one
// event object per line, schema asa-trace/1) — the --trace-out format
// that obs::parse_trace_jsonl reads back losslessly, including details
// containing newlines and quotes.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace_event.hpp"
#include "sim/scheduler.hpp"

namespace asa_repro::sim {

using TraceEvent = obs::TraceEvent;

/// Append-only trace sink.
class Trace {
 public:
  explicit Trace(bool enabled = true) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void record(Time time, std::uint32_t node, std::string category,
              std::string detail) {
    if (!enabled_) return;
    const std::uint32_t id = intern(category);
    by_category_[id].push_back(events_.size());
    events_.push_back({time, node, std::move(category), std::move(detail)});
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }

  /// Number of events in the given category. O(log categories).
  [[nodiscard]] std::size_t count(std::string_view category) const {
    const auto it = category_ids_.find(category);
    return it == category_ids_.end() ? 0 : by_category_[it->second].size();
  }

  /// All events matching a predicate.
  [[nodiscard]] std::vector<TraceEvent> filter(
      const std::function<bool(const TraceEvent&)>& pred) const {
    std::vector<TraceEvent> out;
    for (const auto& e : events_) {
      if (pred(e)) out.push_back(e);
    }
    return out;
  }

  /// Visit every event of one category, in record order, without scanning
  /// the other categories (uses the per-category index).
  void for_each_in_category(
      std::string_view category,
      const std::function<void(const TraceEvent&)>& fn) const {
    const auto it = category_ids_.find(category);
    if (it == category_ids_.end()) return;
    for (const std::size_t index : by_category_[it->second]) {
      fn(events_[index]);
    }
  }

  /// Append another trace's events (campaign drivers concatenate per-seed
  /// traces into one stream).
  void append(const Trace& other) {
    for (const TraceEvent& e : other.events_) {
      record(e.time, e.node, e.category, e.detail);
    }
  }

  void clear() {
    events_.clear();
    category_ids_.clear();
    by_category_.clear();
  }

  /// Human-readable dump, one event per line.
  void dump(std::ostream& os) const;

  /// JSONL dump: one {"t","node","cat","detail"} object per line, details
  /// escaped (newlines, quotes, control characters survive a round-trip).
  /// Emits no header line; writers prepend the asa-trace/1 header.
  void dump_jsonl(std::ostream& os) const;

 private:
  std::uint32_t intern(const std::string& category) {
    const auto it = category_ids_.find(category);
    if (it != category_ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(by_category_.size());
    category_ids_.emplace(category, id);
    by_category_.emplace_back();
    return id;
  }

  bool enabled_;
  std::vector<TraceEvent> events_;
  // Interned category ids with transparent string_view lookup, plus the
  // per-category positions index.
  std::map<std::string, std::uint32_t, std::less<>> category_ids_;
  std::vector<std::vector<std::size_t>> by_category_;
};

}  // namespace asa_repro::sim
