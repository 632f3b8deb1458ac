#include "obs/trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "obs/json_number.h"

namespace flattree::obs {
namespace {

// append_json_number, except that a non-finite value becomes 0: the
// Chrome trace format requires a number where JSON exports write null.
void append_double(std::string& out, double v) {
  append_json_number(out, std::isfinite(v) ? v : 0.0);
}

}  // namespace

EventTracer::EventTracer(std::size_t capacity)
    : capacity_{capacity == 0 ? 1 : capacity} {
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void EventTracer::push(TraceEvent event) {
  std::lock_guard lock{mutex_};
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  full_ = true;
  ring_[next_] = event;
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

void EventTracer::span(const char* cat, const char* name, double ts_s,
                       double dur_s, std::uint32_t track, std::int64_t arg) {
  TraceEvent event;
  event.ts_us = ts_s * 1e6;
  event.dur_us = dur_s * 1e6;
  event.track = track;
  event.phase = 'X';
  event.cat = cat;
  event.name = name;
  event.arg = arg;
  push(event);
}

void EventTracer::instant(const char* cat, const char* name, double ts_s,
                          std::uint32_t track, std::int64_t arg) {
  TraceEvent event;
  event.ts_us = ts_s * 1e6;
  event.track = track;
  event.phase = 'i';
  event.cat = cat;
  event.name = name;
  event.arg = arg;
  push(event);
}

void EventTracer::mark(const char* cat, const char* name, std::uint32_t track,
                       std::int64_t arg) {
  TraceEvent event;
  {
    std::lock_guard lock{mutex_};
    event.ts_us = static_cast<double>(logical_++);
  }
  event.track = track;
  event.phase = 'i';
  event.cat = cat;
  event.name = name;
  event.arg = arg;
  push(event);
}

std::size_t EventTracer::size() const {
  std::lock_guard lock{mutex_};
  return ring_.size();
}

std::uint64_t EventTracer::dropped() const {
  std::lock_guard lock{mutex_};
  return dropped_;
}

std::vector<TraceEvent> EventTracer::snapshot() const {
  std::lock_guard lock{mutex_};
  if (!full_) return ring_;
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % capacity_]);
  }
  return out;
}

std::string EventTracer::chrome_trace_json() const {
  const std::vector<TraceEvent> events = snapshot();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out.push_back(',');
    first = false;
    out += "\n{\"name\":";
    append_json_string(out, event.name);
    out += ",\"cat\":";
    append_json_string(out, event.cat);
    out += ",\"ph\":\"";
    out.push_back(event.phase);
    out += "\",\"ts\":";
    append_double(out, event.ts_us);
    if (event.phase == 'X') {
      out += ",\"dur\":";
      append_double(out, event.dur_us);
    }
    out += ",\"pid\":0,\"tid\":";
    append_double(out, static_cast<double>(event.track));
    if (event.arg != TraceEvent::kNoArg) {
      out += ",\"args\":{\"value\":";
      char buf[24];
      const auto r = std::to_chars(buf, buf + sizeof(buf), event.arg);
      out.append(buf, r.ptr);
      out += "}";
    } else if (event.phase == 'i') {
      out += ",\"s\":\"g\"";  // global-scope instant: visible at any zoom
    }
    out.push_back('}');
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

std::string EventTracer::text_summary() const {
  const std::vector<TraceEvent> events = snapshot();
  struct Agg {
    std::uint64_t count{0};
    double span_us{0.0};
  };
  std::map<std::pair<std::string, std::string>, Agg> by_name;
  for (const TraceEvent& event : events) {
    Agg& agg = by_name[{event.cat, event.name}];
    ++agg.count;
    if (event.phase == 'X') agg.span_us += event.dur_us;
  }
  std::string out;
  for (const auto& [key, agg] : by_name) {
    out += key.first + "/" + key.second + ": ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%llu event%s",
                  static_cast<unsigned long long>(agg.count),
                  agg.count == 1 ? "" : "s");
    out += buf;
    if (agg.span_us > 0) {
      std::snprintf(buf, sizeof(buf), ", %.3f ms spanned", agg.span_us / 1e3);
      out += buf;
    }
    out.push_back('\n');
  }
  {
    std::lock_guard lock{mutex_};
    if (dropped_ > 0) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "(ring overflow: %llu oldest dropped)\n",
                    static_cast<unsigned long long>(dropped_));
      out += buf;
    }
  }
  return out;
}

bool EventTracer::write_chrome_trace(const std::string& path,
                                     std::string* error) const {
  const std::string payload = chrome_trace_json();
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

void EventTracer::clear() {
  std::lock_guard lock{mutex_};
  ring_.clear();
  next_ = 0;
  full_ = false;
  dropped_ = 0;
  logical_ = 0;
}

}  // namespace flattree::obs
