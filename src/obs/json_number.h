// The JSON number encoding shared by every deterministic export in the tree:
// BENCH_<name>.json reports (exec/results.h), the metrics registry, pair
// telemetry, and through the BENCH encoder the canonical scenario form. One
// function, so those files cannot drift apart in how they print a number.
// (obs/trace.cc writes 0 for a non-finite value instead: the Chrome trace
// format requires a number there.)
#pragma once

#include <cstdint>
#include <string>

namespace flattree::obs {

// Appends `v` as its shortest round-trip decimal (std::to_chars), or null
// when it is not finite.
void append_json_number(std::string& out, double v);
void append_json_number(std::string& out, std::uint64_t v);

}  // namespace flattree::obs
