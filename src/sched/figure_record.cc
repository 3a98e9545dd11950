#include "sched/figure_record.h"

#include <cmath>
#include <cstdlib>

#include "common/safe_io.h"
#include "common/strings.h"
#include "obs/json_lite.h"

namespace fairclean {
namespace sched {
namespace {

constexpr char kFormat[] = "fairclean.figure";

// "%a" prints the exact binary value; strtod reads it back unchanged.
std::string Hexfloat(double value) { return StrFormat("\"%a\"", value); }

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("malformed figure record: " + what);
}

Result<double> ParseHexfloat(const obs::JsonValue& row, const char* name) {
  const obs::JsonValue* field = row.Find(name);
  if (field == nullptr || !field->is_string() ||
      field->string_value.empty()) {
    return Malformed(std::string("missing ") + name);
  }
  const char* text = field->string_value.c_str();
  // No errno check: glibc flags an exact subnormal (a tiny p) as ERANGE.
  char* end = nullptr;
  double value = std::strtod(text, &end);
  if (end != text + field->string_value.size()) {
    return Malformed(std::string("bad ") + name + " " + field->string_value);
  }
  return value;
}

Result<size_t> ParseCount(const obs::JsonValue& row, const char* name) {
  const obs::JsonValue* field = row.Find(name);
  // Counts are row tallies, far below 2^53, so the JSON double is exact.
  if (field == nullptr || !field->is_number() || field->number_value < 0 ||
      field->number_value > 9007199254740992.0 ||
      std::floor(field->number_value) != field->number_value) {
    return Malformed(std::string("bad ") + name);
  }
  return static_cast<size_t>(field->number_value);
}

Result<std::string> ParseString(const obs::JsonValue& object,
                                const char* name) {
  const obs::JsonValue* field = object.Find(name);
  if (field == nullptr || !field->is_string()) {
    return Malformed(std::string("missing ") + name);
  }
  return field->string_value;
}

Result<bool> ParseBool(const obs::JsonValue& object, const char* name) {
  const obs::JsonValue* field = object.Find(name);
  if (field == nullptr || field->type != obs::JsonValue::Type::kBool) {
    return Malformed(std::string("missing ") + name);
  }
  return field->bool_value;
}

Result<DisparityRow> ParseRow(const obs::JsonValue& item) {
  if (!item.is_object()) return Malformed("row is not an object");
  DisparityRow row;
  FC_ASSIGN_OR_RETURN(row.dataset, ParseString(item, "dataset"));
  FC_ASSIGN_OR_RETURN(row.detector, ParseString(item, "detector"));
  FC_ASSIGN_OR_RETURN(row.group_key, ParseString(item, "group"));
  FC_ASSIGN_OR_RETURN(row.intersectional, ParseBool(item, "intersectional"));
  FC_ASSIGN_OR_RETURN(row.privileged_total,
                      ParseCount(item, "privileged_total"));
  FC_ASSIGN_OR_RETURN(row.disadvantaged_total,
                      ParseCount(item, "disadvantaged_total"));
  FC_ASSIGN_OR_RETURN(row.privileged_flagged,
                      ParseCount(item, "privileged_flagged"));
  FC_ASSIGN_OR_RETURN(row.disadvantaged_flagged,
                      ParseCount(item, "disadvantaged_flagged"));
  if (row.privileged_flagged > row.privileged_total ||
      row.disadvantaged_flagged > row.disadvantaged_total) {
    return Malformed("more flagged tuples than group members");
  }
  FC_ASSIGN_OR_RETURN(row.g2.statistic, ParseHexfloat(item, "g2"));
  FC_ASSIGN_OR_RETURN(row.g2.p_value, ParseHexfloat(item, "p"));
  FC_ASSIGN_OR_RETURN(row.significant, ParseBool(item, "significant"));
  return row;
}

}  // namespace

std::string FigureRecordKey(const std::string& dataset, bool intersectional,
                            uint64_t study_seed) {
  // Seed offsets 17/19 are the historical Fig. 1 / Fig. 2 rng streams.
  return StrFormat("figure:v%d:disparity:%s:%s:s%llu", kFigureRecordVersion,
                   dataset.c_str(),
                   intersectional ? "intersectional" : "single",
                   static_cast<unsigned long long>(
                       study_seed + (intersectional ? 19 : 17)));
}

std::string EncodeFigureRecord(const std::string& dataset,
                               bool intersectional,
                               const std::vector<DisparityRow>& rows) {
  std::string body = StrFormat(
      "{\"format\":%s,\"version\":%d,\"dataset\":%s,\"intersectional\":%s,"
      "\"rows\":[",
      obs::JsonQuote(kFormat).c_str(), kFigureRecordVersion,
      obs::JsonQuote(dataset).c_str(), intersectional ? "true" : "false");
  for (size_t i = 0; i < rows.size(); ++i) {
    const DisparityRow& row = rows[i];
    body += StrFormat(
        "%s{\"dataset\":%s,\"detector\":%s,\"group\":%s,"
        "\"intersectional\":%s,\"privileged_total\":%zu,"
        "\"disadvantaged_total\":%zu,\"privileged_flagged\":%zu,"
        "\"disadvantaged_flagged\":%zu,\"g2\":%s,\"p\":%s,"
        "\"significant\":%s}",
        i ? "," : "", obs::JsonQuote(row.dataset).c_str(),
        obs::JsonQuote(row.detector).c_str(),
        obs::JsonQuote(row.group_key).c_str(),
        row.intersectional ? "true" : "false", row.privileged_total,
        row.disadvantaged_total, row.privileged_flagged,
        row.disadvantaged_flagged, Hexfloat(row.g2.statistic).c_str(),
        Hexfloat(row.g2.p_value).c_str(),
        row.significant ? "true" : "false");
  }
  body += "]}\n";
  return AppendChecksumFooter(body);
}

Result<std::vector<DisparityRow>> DecodeFigureRecord(
    const std::string& bytes, const std::string& dataset,
    bool intersectional) {
  FC_ASSIGN_OR_RETURN(std::string body, VerifyChecksumFooter(bytes));
  obs::JsonValue parsed;
  std::string error;
  if (!obs::JsonValue::Parse(body, &parsed, &error)) return Malformed(error);
  if (!parsed.is_object()) return Malformed("not an object");
  FC_ASSIGN_OR_RETURN(std::string format, ParseString(parsed, "format"));
  const obs::JsonValue* version = parsed.Find("version");
  if (format != kFormat || version == nullptr || !version->is_number() ||
      version->number_value != kFigureRecordVersion) {
    return Malformed("not a version " +
                     std::to_string(kFigureRecordVersion) + " " + kFormat +
                     " record");
  }
  FC_ASSIGN_OR_RETURN(std::string recorded, ParseString(parsed, "dataset"));
  FC_ASSIGN_OR_RETURN(bool recorded_intersectional,
                      ParseBool(parsed, "intersectional"));
  if (recorded != dataset || recorded_intersectional != intersectional) {
    return Malformed("record holds another panel");
  }
  const obs::JsonValue* items = parsed.Find("rows");
  if (items == nullptr || !items->is_array()) return Malformed("no rows");
  std::vector<DisparityRow> rows;
  rows.reserve(items->array_items.size());
  for (const obs::JsonValue& item : items->array_items) {
    FC_ASSIGN_OR_RETURN(DisparityRow row, ParseRow(item));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace sched
}  // namespace fairclean
