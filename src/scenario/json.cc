#include "scenario/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace flattree::scenario {
namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string_view file)
      : text_{text}, file_{file} {}

  JsonNode parse() {
    skip_ws();
    JsonNode root = parse_value();
    skip_ws();
    if (pos_ < text_.size()) {
      fail_here("trailing content after the top-level value");
    }
    return root;
  }

 private:
  [[noreturn]] void fail_at(std::uint32_t line, std::uint32_t column,
                            const std::string& what) const {
    throw ScenarioError(std::string{file_} + ":" + std::to_string(line) +
                        ":" + std::to_string(column) + ": " + what);
  }
  [[noreturn]] void fail_here(const std::string& what) const {
    fail_at(line_, column_, what);
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  char advance() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        advance();
      } else {
        break;
      }
    }
  }

  void expect(char c, const char* where) {
    if (eof() || peek() != c) {
      fail_here(std::string{"expected '"} + c + "' " + where);
    }
    advance();
  }

  JsonNode parse_value() {
    if (eof()) fail_here("unexpected end of input");
    JsonNode node;
    node.line = line_;
    node.column = column_;
    const char c = peek();
    switch (c) {
      case '{':
        parse_object(node);
        break;
      case '[':
        parse_array(node);
        break;
      case '"':
        node.kind = JsonNode::Kind::kString;
        node.string = parse_string();
        break;
      case 't':
        parse_keyword("true");
        node.kind = JsonNode::Kind::kBool;
        node.bool_value = true;
        break;
      case 'f':
        parse_keyword("false");
        node.kind = JsonNode::Kind::kBool;
        node.bool_value = false;
        break;
      case 'n':
        parse_keyword("null");
        node.kind = JsonNode::Kind::kNull;
        break;
      default:
        if (c == '-' || (c >= '0' && c <= '9')) {
          node.kind = JsonNode::Kind::kNumber;
          node.number = parse_number();
        } else {
          fail_here(std::string{"unexpected character '"} + c + "'");
        }
    }
    return node;
  }

  void parse_keyword(std::string_view word) {
    for (const char c : word) {
      if (eof() || peek() != c) {
        fail_here("invalid literal (expected \"" + std::string{word} + "\")");
      }
      advance();
    }
  }

  double parse_number() {
    const std::uint32_t line = line_;
    const std::uint32_t column = column_;
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') advance();
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      fail_here("malformed number");
    }
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
      advance();
    }
    if (!eof() && peek() == '.') {
      advance();
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        fail_here("malformed number (digit required after '.')");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        advance();
      }
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      advance();
      if (!eof() && (peek() == '+' || peek() == '-')) advance();
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        fail_here("malformed number (digit required in exponent)");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        advance();
      }
    }
    const std::string slice{text_.substr(start, pos_ - start)};
    const double v = std::strtod(slice.c_str(), nullptr);
    // strtod saturates an overflowing literal to infinity, which the
    // canonical writer could only emit as null: reject it here instead.
    if (!std::isfinite(v)) {
      fail_at(line, column, "number " + slice + " does not fit in a double");
    }
    return v;
  }

  std::string parse_string() {
    expect('"', "to open a string");
    std::string out;
    for (;;) {
      if (eof()) fail_here("unterminated string");
      const char c = advance();
      if (c == '"') return out;
      if (c == '\n') fail_here("unterminated string (newline inside)");
      if (c == '\\') {
        if (eof()) fail_here("unterminated escape");
        const char e = advance();
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            std::uint32_t code = 0;
            for (int i = 0; i < 4; ++i) {
              if (eof()) fail_here("unterminated \\u escape");
              const char h = advance();
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<std::uint32_t>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<std::uint32_t>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<std::uint32_t>(h - 'A' + 10);
              } else {
                fail_here("invalid \\u escape digit");
              }
            }
            if (code > 0x7f) {
              fail_here("non-ASCII \\u escape (scenario files are ASCII)");
            }
            out.push_back(static_cast<char>(code));
            break;
          }
          default:
            fail_here(std::string{"invalid escape '\\"} + e + "'");
        }
      } else {
        out.push_back(c);
      }
    }
  }

  void parse_object(JsonNode& node) {
    node.kind = JsonNode::Kind::kObject;
    expect('{', "to open an object");
    skip_ws();
    if (!eof() && peek() == '}') {
      advance();
      return;
    }
    for (;;) {
      skip_ws();
      const std::uint32_t key_line = line_;
      const std::uint32_t key_column = column_;
      if (eof() || peek() != '"') {
        fail_here("expected a string key");
      }
      std::string key = parse_string();
      if (node.find(key) != nullptr) {
        fail_at(key_line, key_column, "duplicate key \"" + key + "\"");
      }
      skip_ws();
      expect(':', "after an object key");
      skip_ws();
      node.members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (eof()) fail_here("unterminated object");
      if (peek() == ',') {
        advance();
        continue;
      }
      expect('}', "to close an object");
      return;
    }
  }

  void parse_array(JsonNode& node) {
    node.kind = JsonNode::Kind::kArray;
    expect('[', "to open an array");
    skip_ws();
    if (!eof() && peek() == ']') {
      advance();
      return;
    }
    for (;;) {
      skip_ws();
      node.items.push_back(parse_value());
      skip_ws();
      if (eof()) fail_here("unterminated array");
      if (peek() == ',') {
        advance();
        continue;
      }
      expect(']', "to close an array");
      return;
    }
  }

  std::string_view text_;
  std::string_view file_;
  std::size_t pos_{0};
  std::uint32_t line_{1};
  std::uint32_t column_{1};
};

}  // namespace

const JsonNode* JsonNode::find(std::string_view key) const {
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

const char* JsonNode::kind_name() const {
  switch (kind) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "bool";
    case Kind::kNumber: return "number";
    case Kind::kString: return "string";
    case Kind::kArray: return "array";
    case Kind::kObject: return "object";
  }
  return "?";
}

JsonNode parse_json(std::string_view text, std::string_view file) {
  return Parser{text, file}.parse();
}

}  // namespace flattree::scenario
