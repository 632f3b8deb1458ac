// Machine-readable bench results.
//
// Every bench ported onto the ExperimentRunner emits BENCH_<name>.json
// next to its text table so the perf/fidelity trajectory can be tracked
// across commits by tooling instead of eyeballs. The serialization is
// deterministic — insertion-ordered fields, shortest-round-trip doubles —
// and the payload contains only experiment results (never thread counts or
// wall-clock times), so a run with --threads N is byte-identical to
// --threads 1.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace flattree::exec {

// Scalar JSON value. Numbers serialize via obs::append_json_number
// (shortest round-trip; non-finite doubles serialize as null).
class JsonValue {
 public:
  JsonValue() = default;
  JsonValue(bool value) : kind_{Kind::kBool}, bool_{value} {}
  JsonValue(int value) : kind_{Kind::kInt}, int_{value} {}
  JsonValue(std::int64_t value) : kind_{Kind::kInt}, int_{value} {}
  JsonValue(std::uint32_t value)
      : kind_{Kind::kInt}, int_{static_cast<std::int64_t>(value)} {}
  JsonValue(std::uint64_t value) : kind_{Kind::kUint}, uint_{value} {}
  JsonValue(double value) : kind_{Kind::kDouble}, double_{value} {}
  JsonValue(std::string value)
      : kind_{Kind::kString}, string_{std::move(value)} {}
  JsonValue(const char* value) : kind_{Kind::kString}, string_{value} {}

  // Appends the JSON encoding of this value to `out`.
  void append_json(std::string& out) const;

 private:
  enum class Kind : std::uint8_t { kNull, kBool, kInt, kUint, kDouble, kString };

  Kind kind_{Kind::kNull};
  bool bool_{false};
  std::int64_t int_{0};
  std::uint64_t uint_{0};
  double double_{0.0};
  std::string string_;
};

// One experiment cell's results: an insertion-ordered set of named scalars
// (one JSON object per row).
class ResultRow {
 public:
  ResultRow& set(std::string key, JsonValue value) {
    fields_.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& fields()
      const {
    return fields_;
  }
  void append_json(std::string& out) const;

 private:
  std::vector<std::pair<std::string, JsonValue>> fields_;
};

// A full bench report: {"bench": ..., "seed": ..., <meta...>,
// ["metrics": {...},] "results": [<rows...>]}.
struct BenchReport {
  std::string bench;
  std::uint64_t seed{0};
  std::vector<std::pair<std::string, JsonValue>> meta;
  std::vector<ResultRow> rows;
  // Pre-serialized deterministic metrics object (from
  // obs::MetricsRegistry::metrics_object_json). Empty = no metrics block;
  // the report is then byte-identical to one built without observability.
  std::string metrics_json;

  [[nodiscard]] std::string to_json() const;
};

// Writes `content` to `path` atomically (rename from a sibling temp file).
// Returns false and fills `*error` on failure.
bool write_text_file(const std::string& content, const std::string& path,
                     std::string* error = nullptr);

// Writes `report.to_json()` to `path` (atomically via rename from a
// sibling temp file). Returns false and fills `*error` on failure.
bool write_report(const BenchReport& report, const std::string& path,
                  std::string* error = nullptr);

}  // namespace flattree::exec
