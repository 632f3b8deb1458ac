#include "obs/metrics.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/json_number.h"

namespace flattree::obs {
namespace {

void atomic_min(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_{std::move(bounds)},
      buckets_(bounds_.size() + 1),
      min_{std::numeric_limits<double>::infinity()},
      max_{-std::numeric_limits<double>::infinity()} {
  // Strictly ascending: a duplicated bound would be a dead bucket.
  if (std::adjacent_find(bounds_.begin(), bounds_.end(),
                         [](double a, double b) { return a >= b; }) !=
      bounds_.end()) {
    throw std::invalid_argument("Histogram: bounds must be strictly ascending");
  }
}

void Histogram::record(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_min(min_, v);
  atomic_max(max_, v);
}

void Histogram::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(std::string_view name, MetricScope scope) {
  std::lock_guard lock{mutex_};
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.scope = scope;
    entry.counter = std::make_unique<Counter>();
    it = entries_.emplace(std::string{name}, std::move(entry)).first;
  }
  if (it->second.counter == nullptr) {
    throw std::logic_error("metric '" + std::string{name} +
                           "' already registered with a different type");
  }
  return *it->second.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, MetricScope scope) {
  std::lock_guard lock{mutex_};
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.scope = scope;
    entry.gauge = std::make_unique<Gauge>();
    it = entries_.emplace(std::string{name}, std::move(entry)).first;
  }
  if (it->second.gauge == nullptr) {
    throw std::logic_error("metric '" + std::string{name} +
                           "' already registered with a different type");
  }
  return *it->second.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds,
                                      MetricScope scope) {
  std::lock_guard lock{mutex_};
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.scope = scope;
    entry.histogram = std::make_unique<Histogram>(std::move(bounds));
    it = entries_.emplace(std::string{name}, std::move(entry)).first;
  }
  if (it->second.histogram == nullptr) {
    throw std::logic_error("metric '" + std::string{name} +
                           "' already registered with a different type");
  }
  return *it->second.histogram;
}

std::string MetricsRegistry::metrics_object_json(
    bool include_diagnostic) const {
  std::lock_guard lock{mutex_};
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : entries_) {
    if (entry.scope == MetricScope::kDiagnostic && !include_diagnostic) {
      continue;
    }
    if (!first) out.push_back(',');
    first = false;
    out += "\n  ";
    append_json_string(out, name);
    out += ":{";
    if (entry.counter != nullptr) {
      out += "\"type\":\"counter\",\"value\":";
      append_json_number(out, entry.counter->value());
    } else if (entry.gauge != nullptr) {
      out += "\"type\":\"gauge\",\"value\":";
      append_json_number(out, entry.gauge->value());
    } else {
      const Histogram& h = *entry.histogram;
      out += "\"type\":\"histogram\",\"count\":";
      append_json_number(out, h.count());
      if (h.count() > 0) {
        out += ",\"min\":";
        append_json_number(out, h.min());
        out += ",\"max\":";
        append_json_number(out, h.max());
      }
      out += ",\"bounds\":[";
      for (std::size_t i = 0; i < h.bounds().size(); ++i) {
        if (i != 0) out.push_back(',');
        append_json_number(out, h.bounds()[i]);
      }
      out += "],\"counts\":[";
      for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
        if (i != 0) out.push_back(',');
        append_json_number(out, h.bucket_count(i));
      }
      out += "]";
    }
    out.push_back('}');
  }
  out += first ? "}" : "\n}";
  return out;
}

std::string MetricsRegistry::to_json(bool include_diagnostic) const {
  return "{\"metrics\":" + metrics_object_json(include_diagnostic) + "}\n";
}

std::string MetricsRegistry::text_summary() const {
  std::lock_guard lock{mutex_};
  std::string out;
  for (const auto& [name, entry] : entries_) {
    out += name;
    if (entry.scope == MetricScope::kDiagnostic) out += " [diagnostic]";
    out += " = ";
    if (entry.counter != nullptr) {
      append_json_number(out, entry.counter->value());
    } else if (entry.gauge != nullptr) {
      append_json_number(out, entry.gauge->value());
    } else {
      const Histogram& h = *entry.histogram;
      out += "count ";
      append_json_number(out, h.count());
      if (h.count() > 0) {
        out += ", min ";
        append_json_number(out, h.min());
        out += ", max ";
        append_json_number(out, h.max());
      }
    }
    out.push_back('\n');
  }
  return out;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard lock{mutex_};
  return entries_.size();
}

void MetricsRegistry::reset() {
  std::lock_guard lock{mutex_};
  for (auto& [name, entry] : entries_) {
    if (entry.counter != nullptr) entry.counter->reset();
    if (entry.gauge != nullptr) entry.gauge->reset();
    if (entry.histogram != nullptr) entry.histogram->reset();
  }
}

}  // namespace flattree::obs
