#include "exec/results.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "obs/json_number.h"

namespace flattree::exec {
namespace {

void append_fields(
    std::string& out,
    const std::vector<std::pair<std::string, JsonValue>>& fields) {
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!first) out.push_back(',');
    first = false;
    obs::append_json_string(out, key);
    out.push_back(':');
    value.append_json(out);
  }
}

}  // namespace

void JsonValue::append_json(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kInt: {
      char buf[24];
      const auto r = std::to_chars(buf, buf + sizeof(buf), int_);
      out.append(buf, r.ptr);
      return;
    }
    case Kind::kUint:
      obs::append_json_number(out, uint_);
      return;
    case Kind::kDouble:
      obs::append_json_number(out, double_);
      return;
    case Kind::kString:
      obs::append_json_string(out, string_);
      return;
  }
}

void ResultRow::append_json(std::string& out) const {
  out.push_back('{');
  append_fields(out, fields_);
  out.push_back('}');
}

std::string BenchReport::to_json() const {
  std::string out;
  out += "{\"bench\":";
  obs::append_json_string(out, bench);
  out += ",\"seed\":";
  JsonValue{seed}.append_json(out);
  if (!meta.empty()) {
    out.push_back(',');
    append_fields(out, meta);
  }
  if (!metrics_json.empty()) {
    out += ",\"metrics\":";
    out += metrics_json;
  }
  out += ",\"results\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) out.push_back(',');
    out += "\n  ";
    rows[i].append_json(out);
  }
  out += rows.empty() ? "]}" : "\n]}";
  out.push_back('\n');
  return out;
}

bool write_text_file(const std::string& content, const std::string& path,
                     std::string* error) {
  const std::string& payload = content;
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + tmp;
    return false;
  }
  const bool wrote =
      std::fwrite(payload.data(), 1, payload.size(), f) == payload.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    if (error != nullptr) *error = "short write to " + tmp;
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) *error = "cannot rename " + tmp + " to " + path;
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool write_report(const BenchReport& report, const std::string& path,
                  std::string* error) {
  return write_text_file(report.to_json(), path, error);
}

}  // namespace flattree::exec
