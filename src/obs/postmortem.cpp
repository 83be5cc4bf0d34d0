#include "obs/postmortem.hpp"

#include <utility>

namespace asa_repro::obs {

std::string write_postmortem_json(const Meta& meta,
                                  const PostmortemViolations& violations,
                                  const std::vector<std::string>& plan,
                                  const std::vector<std::string>& shrunk_plan,
                                  const EventRecorder& flight,
                                  const MetricsRegistry& metrics,
                                  const SpanRecorder& spans) {
  JsonValue root = JsonValue::object();
  root.set("schema", JsonValue("asa-postmortem/1"));

  JsonValue meta_obj = JsonValue::object();
  for (const auto& [k, v] : meta) meta_obj.set(k, JsonValue(v));
  root.set("meta", std::move(meta_obj));

  JsonValue violations_arr = JsonValue::array();
  for (const auto& [invariant, detail] : violations) {
    JsonValue entry = JsonValue::object();
    entry.set("invariant", JsonValue(invariant));
    entry.set("detail", JsonValue(detail));
    violations_arr.push_back(std::move(entry));
  }
  root.set("violations", std::move(violations_arr));

  JsonValue plan_arr = JsonValue::array();
  for (const std::string& line : plan) plan_arr.push_back(JsonValue(line));
  root.set("plan", std::move(plan_arr));

  JsonValue shrunk_arr = JsonValue::array();
  for (const std::string& line : shrunk_plan) {
    shrunk_arr.push_back(JsonValue(line));
  }
  root.set("shrunk_plan", std::move(shrunk_arr));

  root.set("flight", flight.to_json());
  // The embedded documents keep their own schema members so a consumer
  // can slice them out and feed them to any asa-metrics/1 or asa-span/1
  // reader unchanged.
  root.set("metrics", metrics_json(metrics, meta));
  root.set("spans", spans_json(spans, meta));

  return root.dump(1) + "\n";
}

}  // namespace asa_repro::obs
