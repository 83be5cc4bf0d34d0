// Field-drop sweep over the asa-* schema table (obs/report.hpp).
//
// Given a document a real writer produced, the sweep visits every field
// the table lists for it, nested shapes and embedded documents included,
// and checks two edits of each:
//   - deleting the field is rejected with a message naming its path,
//     unless the table marks it optional, in which case the edited
//     document still validates and its renderer runs on it;
//   - giving the field a value of the wrong kind is rejected with a
//     message naming its path.
// The fixture must carry every field, optional ones too, and non-empty
// arrays of shapes and flight lanes, so that nothing in the table goes
// unvisited.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"

namespace asa_repro::schema_sweep {

/// Where a field sits: object keys and array indices from the root.
struct Step {
  std::string key;        // Object member, when the parent is an object.
  std::size_t index = 0;  // Array item, when the parent is an array.
};
using Path = std::vector<Step>;

/// A copy of `v` in which the value at `path` is replaced, or removed when
/// `replacement` is empty.
inline obs::JsonValue edit(const obs::JsonValue& v, const Path& path,
                           std::size_t depth,
                           const std::optional<obs::JsonValue>& replacement) {
  const bool last = depth + 1 == path.size();
  if (v.is_object()) {
    obs::JsonValue out = obs::JsonValue::object();
    for (const auto& [key, member] : v.members()) {
      if (key != path[depth].key) {
        out.set(key, member);
      } else if (!last) {
        out.set(key, edit(member, path, depth + 1, replacement));
      } else if (replacement.has_value()) {
        out.set(key, *replacement);
      }
    }
    return out;
  }
  obs::JsonValue out = obs::JsonValue::array();
  for (std::size_t i = 0; i < v.items().size(); ++i) {
    if (i != path[depth].index) {
      out.push_back(v.items()[i]);
    } else if (!last) {
      out.push_back(edit(v.items()[i], path, depth + 1, replacement));
    } else if (replacement.has_value()) {
      out.push_back(*replacement);
    }
  }
  return out;
}

class Sweep {
 public:
  using Validate =
      std::function<std::optional<std::string>(const obs::JsonValue&)>;
  using Render = std::function<void(const obs::JsonValue&)>;

  Sweep(obs::JsonValue root, Validate validate, Render render)
      : root_(std::move(root)),
        validate_(std::move(validate)),
        render_(std::move(render)) {}

  /// Sweep `shape` at the root. Returns the number of fields visited.
  std::size_t run(const obs::Shape& shape) {
    EXPECT_EQ(validate_(root_), std::nullopt) << "the fixture is invalid";
    walk(shape, root_, {}, "");
    return visited_;
  }

 private:
  static std::string at(const std::string& path, const std::string& key) {
    return path.empty() ? key : path + "." + key;
  }

  void expect_rejected(const Path& path, const std::string& where,
                       const std::optional<obs::JsonValue>& replacement,
                       const char* what) {
    const std::optional<std::string> error =
        validate_(edit(root_, path, 0, replacement));
    ASSERT_TRUE(error.has_value()) << what << " " << where << " passed";
    EXPECT_TRUE(names(*error, where))
        << what << " " << where << " reported as: " << *error;
  }

  /// Whether `error` leads with `where`, possibly after a line prefix.
  static bool names(const std::string& error, const std::string& where) {
    for (std::size_t pos = error.find(where + ": "); pos != std::string::npos;
         pos = error.find(where + ": ", pos + 1)) {
      if (pos == 0 || error[pos - 1] == ' ') return true;
    }
    return false;
  }

  void walk(const obs::Shape& shape, const obs::JsonValue& node,
            const Path& path, const std::string& where) {
    for (const obs::FieldSpec& field : shape.fields) {
      const obs::JsonValue* value = node.find(field.name);
      const std::string field_at = at(where, field.name);
      ASSERT_NE(value, nullptr) << "the fixture lacks " << field_at;
      ++visited_;
      Path field_path = path;
      field_path.push_back({field.name});

      if (field.optional) {
        const obs::JsonValue dropped = edit(root_, field_path, 0, {});
        EXPECT_EQ(validate_(dropped), std::nullopt) << "dropping " << field_at;
        render_(dropped);
      } else {
        expect_rejected(field_path, field_at, std::nullopt, "dropping");
      }
      expect_rejected(field_path, field_at,
                      field.kind == obs::FieldKind::kString
                          ? obs::JsonValue(std::int64_t{7})
                          : obs::JsonValue("x"),
                      "mistyping");
      if (field.kind == obs::FieldKind::kCount) {
        expect_rejected(field_path, field_at, obs::JsonValue(std::int64_t{-1}),
                        "negating");
        expect_rejected(field_path, field_at, obs::JsonValue(0.5),
                        "making fractional");
      }
      descend(field, *value, field_path, field_at);
    }
  }

  /// Visit the nested fields, and mistype the first element of a
  /// container of strings when it has one.
  void descend(const obs::FieldSpec& field, const obs::JsonValue& value,
               Path path, const std::string& where) {
    switch (field.kind) {
      case obs::FieldKind::kObject:
        if (field.shape != nullptr) walk(*field.shape, value, path, where);
        break;
      case obs::FieldKind::kDocument: {
        const obs::DocumentSchema* row = obs::find_schema(field.document);
        ASSERT_NE(row, nullptr) << field.document;
        Path schema_path = path;
        schema_path.push_back({"schema"});
        expect_rejected(schema_path, at(where, "schema"), std::nullopt,
                        "dropping");
        walk(*row->shape, value, path, where);
        break;
      }
      case obs::FieldKind::kLabels:
        if (value.members().empty()) break;
        path.push_back({value.members().front().first});
        expect_rejected(path, at(where, path.back().key),
                        obs::JsonValue(std::int64_t{7}), "mistyping");
        break;
      case obs::FieldKind::kLanes: {
        ASSERT_FALSE(value.members().empty()) << where << " has no lane";
        const auto& [lane, events] = value.members().front();
        ASSERT_FALSE(events.items().empty()) << where << " lane is empty";
        path.push_back({lane});
        path.push_back({"", 0});
        walk(*field.shape, events.items()[0], path, at(where, lane) + "[0]");
        break;
      }
      case obs::FieldKind::kStringArray:
        if (value.items().empty()) break;
        path.push_back({"", 0});
        expect_rejected(path, where + "[0]", obs::JsonValue(std::int64_t{7}),
                        "mistyping");
        break;
      case obs::FieldKind::kArray:
        ASSERT_FALSE(value.items().empty()) << where << " is empty";
        path.push_back({"", 0});
        walk(*field.shape, value.items()[0], path, where + "[0]");
        break;
      default:
        break;
    }
  }

  obs::JsonValue root_;
  Validate validate_;
  Render render_;
  std::size_t visited_ = 0;
};

/// Sweep a whole document against the row its schema member names, plus
/// the row's own schema member. Returns the number of fields visited.
inline std::size_t sweep_document(
    const std::string& text,
    const std::function<void(const obs::JsonValue&)>& render) {
  const std::optional<obs::JsonValue> doc = obs::parse_json(text);
  EXPECT_TRUE(doc.has_value());
  if (!doc.has_value()) return 0;
  const obs::DocumentSchema* row =
      obs::find_schema(doc->find("schema")->as_string());
  EXPECT_NE(row, nullptr);
  if (row == nullptr) return 0;
  const std::optional<std::string> no_schema = obs::validate_document_json(
      edit(*doc, {{"schema"}}, 0, std::nullopt));
  EXPECT_EQ(no_schema, std::optional<std::string>("schema: missing"));
  return Sweep(*doc, obs::validate_document_json, render).run(*row->shape);
}

}  // namespace asa_repro::schema_sweep
