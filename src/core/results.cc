#include "core/results.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/safe_io.h"
#include "common/strings.h"

namespace fairclean {

void ResultStore::Put(const std::string& key, double value) {
  values_[key] = value;
}

bool ResultStore::Contains(const std::string& key) const {
  return values_.count(key) > 0;
}

Result<double> ResultStore::Get(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return Status::NotFound("no such result key: " + key);
  }
  return it->second;
}

std::vector<std::string> ResultStore::KeysWithPrefix(
    const std::string& prefix) const {
  std::vector<std::string> out;
  for (auto it = values_.lower_bound(prefix); it != values_.end(); ++it) {
    if (!StartsWith(it->first, prefix)) break;
    out.push_back(it->first);
  }
  return out;
}

namespace {

std::string EscapeJsonString(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string ResultStore::ToJson() const {
  std::string out = "{\n";
  bool first = true;
  for (const auto& [key, value] : values_) {
    if (!first) out += ",\n";
    first = false;
    if (std::isfinite(value)) {
      out += StrFormat("  \"%s\": %.17g", EscapeJsonString(key).c_str(),
                       value);
    } else {
      out += StrFormat("  \"%s\": null", EscapeJsonString(key).c_str());
    }
  }
  out += "\n}\n";
  return out;
}

Result<ResultStore> ResultStore::FromJson(const std::string& json) {
  ResultStore store;
  size_t pos = 0;
  auto skip_ws = [&] {
    while (pos < json.size() &&
           (json[pos] == ' ' || json[pos] == '\n' || json[pos] == '\t' ||
            json[pos] == '\r' || json[pos] == ',')) {
      ++pos;
    }
  };
  skip_ws();
  if (pos >= json.size() || json[pos] != '{') {
    return Status::InvalidArgument("expected '{' in result JSON");
  }
  ++pos;
  while (true) {
    skip_ws();
    if (pos >= json.size()) {
      return Status::InvalidArgument("unterminated result JSON");
    }
    if (json[pos] == '}') break;
    if (json[pos] != '"') {
      return Status::InvalidArgument("expected key string in result JSON");
    }
    ++pos;
    std::string key;
    // Fast path: a key without escapes is one contiguous copy.
    size_t close = json.find('"', pos);
    if (close != std::string::npos &&
        std::memchr(json.data() + pos, '\\', close - pos) == nullptr) {
      key.assign(json, pos, close - pos);
      pos = close;
    }
    while (pos < json.size() && json[pos] != '"') {
      if (json[pos] == '\\' && pos + 1 < json.size()) {
        ++pos;
        switch (json[pos]) {
          case 'n':
            key.push_back('\n');
            break;
          case 't':
            key.push_back('\t');
            break;
          default:
            key.push_back(json[pos]);
        }
      } else {
        key.push_back(json[pos]);
      }
      ++pos;
    }
    if (pos >= json.size()) {
      return Status::InvalidArgument("unterminated key in result JSON");
    }
    ++pos;  // closing quote
    skip_ws();
    if (pos >= json.size() || json[pos] != ':') {
      return Status::InvalidArgument("expected ':' in result JSON");
    }
    ++pos;
    skip_ws();
    double value;
    if (StartsWith(std::string_view(json).substr(pos), "null")) {
      value = std::nan("");
      pos += 4;
    } else {
      const char* begin = json.c_str() + pos;
      char* end = nullptr;
      value = std::strtod(begin, &end);
      if (end == begin) {
        return Status::InvalidArgument("expected number in result JSON");
      }
      pos += static_cast<size_t>(end - begin);
    }
    // ToJson writes keys in sorted order, so the end is the usual hint.
    store.values_.insert_or_assign(store.values_.end(), std::move(key),
                                   value);
  }
  // Only whitespace may follow the object: trailing bytes mean the record
  // was damaged or concatenated, never that it is complete.
  for (++pos; pos < json.size(); ++pos) {
    char c = json[pos];
    if (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
      return Status::InvalidArgument("trailing bytes after result JSON");
    }
  }
  return store;
}

Result<ResultStore> ResultStore::LoadFromString(const std::string& content,
                                                const std::string& origin) {
  Result<std::string> body = VerifyChecksumFooter(content);
  if (!body.ok()) {
    return Status::InvalidArgument(origin + ": " + body.status().message());
  }
  return FromJson(*body);
}

void ResultStore::MergeFrom(const ResultStore& other) {
  for (const auto& [key, value] : other.values_) {
    values_[key] = value;
  }
}

std::string MetricKey(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& part : parts) {
    if (part.empty()) continue;
    if (!out.empty()) out += "__";
    out += part;
  }
  return out;
}

}  // namespace fairclean
