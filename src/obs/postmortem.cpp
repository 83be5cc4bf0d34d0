#include "obs/postmortem.hpp"

#include "obs/json.hpp"
#include "obs/span.hpp"

namespace asa_repro::obs {

std::string write_postmortem_json(const Meta& meta,
                                  const PostmortemViolations& violations,
                                  const std::vector<std::string>& plan,
                                  const std::vector<std::string>& shrunk_plan,
                                  const EventRecorder& events,
                                  const MetricsRegistry& metrics) {
  std::string doc;
  JsonWriter out(doc, 1);
  out.begin_object().member("schema", "asa-postmortem/1");
  write_meta(out, meta);

  out.key("violations").begin_array();
  for (const auto& [invariant, detail] : violations) {
    out.begin_object()
        .member("invariant", invariant)
        .member("detail", detail)
        .end_object();
  }
  out.end_array();

  out.key("plan").begin_array();
  for (const std::string& line : plan) out.value(line);
  out.end_array();
  out.key("shrunk_plan").begin_array();
  for (const std::string& line : shrunk_plan) out.value(line);
  out.end_array();

  out.member("flight", events.to_json());
  // The embedded documents keep their own schema members so a consumer
  // can slice them out and feed them to any asa-metrics/1 or asa-span/1
  // reader unchanged.
  out.key("metrics");
  write_metrics_json(out, metrics, meta);
  out.key("spans");
  write_spans_json(out, events, meta);

  out.end_object();
  doc += '\n';
  return doc;
}

}  // namespace asa_repro::obs
