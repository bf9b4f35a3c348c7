// The one reader for the harness's JSON files (scenario specs, chaos
// repro schedules, metric snapshots and traces) and the string escaping
// their writers share.
//
// Deliberately small and strict. It reads what the harness's own writers
// emit (objects, arrays, strings, numbers, true/false) and is NOT a
// general JSON parser. The rules every reader gets from here:
//   - one document per input (finish() rejects trailing content);
//   - strings carry json_escape's escapes and no others, and no raw
//     control characters, so every string has one spelling;
//   - true/false match exactly; lists and objects take no trailing comma;
//   - read_members rejects a repeated member name; skip_value nests at
//     most 64 deep;
//   - parse_number is strtod (metric samples may be inf or nan),
//     parse_finite rejects inf and nan, parse_integer takes whole numbers
//     with |value| <= 9e15 inside the caller's [lo, hi], and in_sim_range
//     keeps a time below 1e18 us so it fits a sim::Duration.
// Structural errors read "harness JSON: <what> at offset N". Typed reads
// throw "<what> must be ..." with the caller's `what` (`scenario: "seed"`),
// so each file keeps its own error wording.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>

namespace stabl::core {

/// The writers' string escaping: \" \\ \n \t, and \u00xx (lowercase hex)
/// for every other byte below 0x20. JsonCursor::parse_string accepts
/// exactly these spellings.
inline std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char code[8];
          std::snprintf(code, sizeof(code), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += code;
        } else {
          out += c;
        }
    }
  }
  return out;
}

class JsonCursor {
 public:
  /// The largest integer magnitude parse_integer accepts.
  static constexpr std::int64_t kMaxInteger = 9'000'000'000'000'000;

  explicit JsonCursor(const std::string& text) : text_(text) {}

  void expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Peek at the next non-whitespace character without consuming it;
  /// returns '\0' at end of input.
  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  /// A string in json_escape's spelling. Raw control characters and any
  /// other escape are refused, so a dump reads back to its own bytes.
  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (static_cast<unsigned char>(text_[pos_]) < 0x20) {
        fail("control character in a string");
      }
      if (text_[pos_] != '\\') {
        out.push_back(text_[pos_++]);
        continue;
      }
      ++pos_;
      out.push_back(unescape());
    }
    expect('"');
    return out;
  }

  /// `before` (the object's '{' or a ',') then `"key":`, for documents
  /// whose members come in a fixed order.
  void expect_key(char before, const char* key) {
    expect(before);
    if (parse_string() != key) fail(std::string("expected \"") + key + "\"");
    expect(':');
  }

  bool parse_bool() {
    const bool value = peek() == 't';
    literal(value ? "true" : "false");
    return value;
  }

  double parse_number() {
    skip_ws();
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(start, &end);
    if (end == start) fail("expected a number");
    pos_ += static_cast<std::size_t>(end - start);
    return value;
  }

  double parse_finite(const std::string& what) {
    const double value = parse_number();
    if (!std::isfinite(value)) {
      throw std::invalid_argument(what + " must be a finite number");
    }
    return value;
  }

  std::int64_t parse_integer(const std::string& what,
                             std::int64_t lo = -kMaxInteger,
                             std::int64_t hi = kMaxInteger) {
    const double value = parse_number();
    // The comparisons are false for nan, so nan fails here too.
    if (!(value == std::floor(value) &&
          std::abs(value) <= static_cast<double>(kMaxInteger))) {
      throw std::invalid_argument(what + " must be an integer");
    }
    const auto integer = static_cast<std::int64_t>(value);
    if (integer < lo) {
      throw std::invalid_argument(what + " must be >= " + std::to_string(lo));
    }
    if (integer > hi) {
      throw std::invalid_argument(what + " must be <= " + std::to_string(hi));
    }
    return integer;
  }

  /// `value` units of `unit_us` microseconds each (1e6: seconds, 1e3:
  /// milliseconds), checked to stay below 1e18 us.
  static double in_sim_range(double value, double unit_us,
                             const std::string& what) {
    if (!(std::abs(value) * unit_us < 1e18)) {
      throw std::invalid_argument(
          what + " is out of range for a simulated duration");
    }
    return value;
  }

  /// `[item, ...]` (or `open item, ... close`), calling read_item() with
  /// the cursor on each element.
  template <class ReadItem>
  void read_list(ReadItem&& read_item, char open = '[', char close = ']') {
    expect(open);
    if (consume(close)) return;
    do {
      read_item();
    } while (consume(','));
    expect(close);
  }

  /// `{"name": value, ...}`, calling read_member(name) with the cursor on
  /// the value. A repeated name throws "<duplicate><name>\"".
  template <class ReadMember>
  void read_members(const std::string& duplicate, ReadMember read_member) {
    std::set<std::string> seen;
    read_list(
        [&] {
          std::string name = parse_string();
          expect(':');
          if (!seen.insert(name).second) {
            throw std::invalid_argument(duplicate + name + "\"");
          }
          read_member(name);
        },
        '{', '}');
  }

  /// Skip one value of any kind (free-form bodies such as trace args),
  /// nested at most 64 deep so a hostile file cannot exhaust the stack.
  void skip_value(int depth = 0) {
    if (depth > 64) fail("value nested too deep");
    const char c = peek();
    if (c == '"') {
      parse_string();
    } else if (c == '{') {
      read_members("harness JSON: duplicate key \"",
                   [&](const std::string&) { skip_value(depth + 1); });
    } else if (c == '[') {
      read_list([&] { skip_value(depth + 1); });
    } else if (c == 't' || c == 'f') {
      parse_bool();
    } else if (c == 'n') {
      literal("null");
    } else {
      parse_number();
    }
  }

  void finish() {
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("harness JSON: " + what + " at offset " +
                                std::to_string(pos_));
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  /// The byte an escape stands for, the cursor past its backslash. A
  /// \uXXXX is accepted only when json_escape spells its byte that way.
  char unescape() {
    const char kind = pos_ < text_.size() ? text_[pos_++] : '\0';
    if (kind == '"' || kind == '\\') return kind;
    if (kind == 'n') return '\n';
    if (kind == 't') return '\t';
    const std::string code = "\\u" + text_.substr(pos_, 4);
    const auto byte =
        static_cast<char>(std::strtoul(code.c_str() + 2, nullptr, 16));
    if (kind != 'u' || json_escape(std::string(1, byte)) != code) {
      fail("escape the harness writers do not emit");
    }
    pos_ += 4;
    return byte;
  }

  /// `word`, letter for letter with nothing in between.
  void literal(const char* word) {
    skip_ws();
    for (; *word != '\0'; ++word, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *word) {
        fail(std::string("expected '") + *word + "'");
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace stabl::core
