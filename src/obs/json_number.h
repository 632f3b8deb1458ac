// The JSON number and string encodings shared by every JSON export in the
// tree: BENCH_<name>.json reports (exec/results.h), the metrics registry,
// the Chrome trace (obs/trace.h), and through the BENCH encoder the
// canonical scenario form. One function each, so those files cannot drift
// apart in how they print a number or a name. (obs/trace.cc writes 0 for a
// non-finite value instead of null: the Chrome trace format requires a
// number there.)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace flattree::obs {

// Appends `v` as its shortest round-trip decimal (std::to_chars), or null
// when it is not finite.
void append_json_number(std::string& out, double v);
void append_json_number(std::string& out, std::uint64_t v);

// Appends `s` as a quoted JSON string: `"` and `\` backslash-escaped,
// newline, tab and carriage return as \n \t \r, other control characters
// as \u00XX. Every other byte is copied as is.
void append_json_string(std::string& out, std::string_view s);

}  // namespace flattree::obs
