#ifndef FAIRCLEAN_OBS_JSON_LITE_H_
#define FAIRCLEAN_OBS_JSON_LITE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fairclean {
namespace obs {

/// Escapes `text` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters). Shared by the trace and metrics
/// writers so every emitted file is parseable JSON.
std::string JsonEscape(std::string_view text);

/// `text` as a complete JSON string literal: JsonEscape inside double
/// quotes. The one quoter of the report, record and reply writers.
std::string JsonQuote(std::string_view text);

/// A parsed JSON value. Deliberately tiny: enough to validate the files
/// this repo emits (trace-event JSON, metrics JSONL) and to aggregate them
/// in tools/obs_tool — not a general-purpose JSON library.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses `text` (one complete JSON value, surrounding whitespace
  /// allowed). On failure returns false and sets `*error` to a message with
  /// a byte offset.
  static bool Parse(std::string_view text, JsonValue* out, std::string* error);

  Type type = Type::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> array_items;
  /// Object members in document order (duplicate keys preserved).
  std::vector<std::pair<std::string, JsonValue>> object_items;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }

  /// First member named `key`, or nullptr (also when not an object).
  const JsonValue* Find(std::string_view key) const;

  /// Convenience accessors with fallbacks for absent/mistyped members.
  double NumberOr(std::string_view key, double fallback) const;
  std::string StringOr(std::string_view key, const std::string& fallback) const;
};

}  // namespace obs
}  // namespace fairclean

#endif  // FAIRCLEAN_OBS_JSON_LITE_H_
