// Minimal JSON for the scenario DSL, with precise source positions.
//
// Scenario files are hand-written and CI-gated, so the parser's job is
// diagnostics first: every node carries the 1-based line/column where it
// started, duplicate object keys are rejected, and any syntax error throws
// a ScenarioError whose message is "<file>:<line>:<col>: <what>". The
// grammar layer (scenario/spec.h) reuses the same error type, so a user
// always gets one uniform, clickable diagnostic — never a silent default.
//
// Supported: RFC 8259 objects/arrays/strings/numbers/true/false/null with
// \uXXXX escapes restricted to ASCII (scenario identifiers are plain). A
// number too large for a double is rejected, not read as infinity. No
// comments, no trailing commas — files stay canonical-form friendly.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace flattree::scenario {

// The one diagnostic currency of the scenario subsystem: parse errors,
// grammar violations and compile-time schedule rejections all throw this.
class ScenarioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct JsonNode {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind{Kind::kNull};
  bool bool_value{false};
  double number{0.0};
  std::string string;
  std::vector<JsonNode> items;                            // kArray
  std::vector<std::pair<std::string, JsonNode>> members;  // kObject, in order
  std::uint32_t line{1};
  std::uint32_t column{1};

  // Member lookup (kObject); null when absent.
  [[nodiscard]] const JsonNode* find(std::string_view key) const;
  // Human name of the kind ("number", "object", ...), for diagnostics.
  [[nodiscard]] const char* kind_name() const;
};

// Parses exactly one JSON value (plus surrounding whitespace). Throws
// ScenarioError with "<file>:<line>:<col>: ..." on any syntax error,
// duplicate key, or trailing content.
[[nodiscard]] JsonNode parse_json(std::string_view text,
                                  std::string_view file);

}  // namespace flattree::scenario
