#include "obs/telemetry.h"

#include "obs/json_number.h"

namespace flattree::obs {

void PairTelemetry::record(const FlowRecord& record) {
  PairCounters& c = pairs_[{record.src, record.dst}];
  ++c.flows;
  c.bytes += record.bytes;
  if (record.completed) {
    ++c.completed;
    c.fct_sum_s += record.fct_s;
  }
  total_bytes_ += record.bytes;
  ++total_flows_;
}

void PairTelemetry::record_all(const std::vector<FlowRecord>& records) {
  for (const FlowRecord& r : records) record(r);
}

void PairTelemetry::merge(const PairTelemetry& other) {
  for (const auto& [key, c] : other.pairs_) {
    PairCounters& mine = pairs_[key];
    mine.flows += c.flows;
    mine.completed += c.completed;
    mine.bytes += c.bytes;
    mine.fct_sum_s += c.fct_sum_s;
  }
  total_bytes_ += other.total_bytes_;
  total_flows_ += other.total_flows_;
}

void PairTelemetry::clear() {
  pairs_.clear();
  total_bytes_ = 0.0;
  total_flows_ = 0;
}

std::string PairTelemetry::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, c] : pairs_) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    append_json_number(out, std::uint64_t{key.first});
    out += "-";
    append_json_number(out, std::uint64_t{key.second});
    out += "\":{\"flows\":";
    append_json_number(out, c.flows);
    out += ",\"completed\":";
    append_json_number(out, c.completed);
    out += ",\"bytes\":";
    append_json_number(out, c.bytes);
    out += ",\"fct_sum_s\":";
    append_json_number(out, c.fct_sum_s);
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace flattree::obs
