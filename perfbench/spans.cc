#include "spans.h"

#include <cstdio>

namespace perfbench {

std::int32_t SpanLog::open(const char* name) {
  if (!enabled_) return -1;
  const auto index = static_cast<std::int32_t>(spans_.size());
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, seconds_between(epoch_, Clock::now()), 0.0,
                        parent});
  stack_.push_back(index);
  return index;
}

void SpanLog::close(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_s =
      seconds_between(epoch_, Clock::now());
  stack_.pop_back();
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans, std::size_t first, std::size_t last) {
  // Children close before their parent and are recorded after it, so one
  // pass charges each child's duration to its parent's self time.
  std::vector<double> child_s(last - first, 0.0);
  for (std::size_t i = first; i < last; ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) >= first) {
      child_s[static_cast<std::size_t>(s.parent) - first] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = first; i < last; ++i) {
    const Span& s = spans[i];
    SpanTotals& t = out[s.name];
    const double duration = s.end_s - s.start_s;
    ++t.count;
    t.total_s += duration;
    t.self_s += duration - child_s[i - first];
  }
  return out;
}

std::map<std::string, double> self_by_layer(
    const std::map<std::string, SpanTotals>& by_name) {
  std::map<std::string, double> out;
  for (const auto& [name, totals] : by_name) {
    out[name.substr(0, name.find('.'))] += totals.self_s;
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index\tname\tstart_s\tend_s\tparent\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu\t%s\t%.9f\t%.9f\t%d\n", i, s.name, s.start_s,
                 s.end_s, s.parent);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
