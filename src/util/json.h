// Minimal streaming JSON writer for machine-readable run summaries.
//
// BENCH_paper.json, the repo benchmark's result line and the CLI's audit
// and poll files are what cross-PR tooling diffs, so emission must be
// deterministic and strict: keys in call order, no trailing commas, all
// strings escaped, doubles printed with enough digits to round-trip. This
// is a writer only — the C++ code never parses JSON.
#pragma once

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/check.h"

namespace hmdsm {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}
  ~JsonWriter() { HMDSM_CHECK_MSG(stack_.empty(), "unclosed JSON scope"); }

  JsonWriter& BeginObject() {
    Prefix();
    os_ << '{';
    stack_.push_back(Scope::kObject);
    fresh_ = true;
    return *this;
  }
  JsonWriter& EndObject() {
    Pop(Scope::kObject);
    os_ << '}';
    return *this;
  }
  JsonWriter& BeginArray() {
    Prefix();
    os_ << '[';
    stack_.push_back(Scope::kArray);
    fresh_ = true;
    return *this;
  }
  JsonWriter& EndArray() {
    Pop(Scope::kArray);
    os_ << ']';
    return *this;
  }

  /// Starts an object member; the next value call supplies its value.
  JsonWriter& Key(std::string_view key) {
    HMDSM_CHECK_MSG(!stack_.empty() && stack_.back() == Scope::kObject,
                    "JSON key outside an object");
    Separator();
    Quote(key);
    os_ << ':';
    pending_key_ = true;
    return *this;
  }

  JsonWriter& String(std::string_view v) {
    Prefix();
    Quote(v);
    return *this;
  }
  JsonWriter& Int(std::int64_t v) {
    Prefix();
    os_ << v;
    return *this;
  }
  JsonWriter& Uint(std::uint64_t v) {
    Prefix();
    os_ << v;
    return *this;
  }
  JsonWriter& Double(double v) {
    Prefix();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os_ << buf;
    return *this;
  }
  JsonWriter& Bool(bool v) {
    Prefix();
    os_ << (v ? "true" : "false");
    return *this;
  }

 private:
  enum class Scope { kObject, kArray };

  /// Value position bookkeeping: inside an array emit separators here;
  /// after a Key the separator was already emitted.
  void Prefix() {
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    HMDSM_CHECK_MSG(stack_.empty() || stack_.back() == Scope::kArray,
                    "JSON value in an object needs a Key first");
    Separator();
  }

  void Separator() {
    if (!fresh_) os_ << ',';
    fresh_ = false;
  }

  void Pop(Scope expected) {
    HMDSM_CHECK_MSG(!stack_.empty() && stack_.back() == expected &&
                        !pending_key_,
                    "mismatched JSON scope close");
    stack_.pop_back();
    fresh_ = false;
  }

  void Quote(std::string_view s) {
    os_ << '"';
    for (const char c : s) {
      switch (c) {
        case '"': os_ << "\\\""; break;
        case '\\': os_ << "\\\\"; break;
        case '\n': os_ << "\\n"; break;
        case '\r': os_ << "\\r"; break;
        case '\t': os_ << "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            os_ << buf;
          } else {
            os_ << c;
          }
      }
    }
    os_ << '"';
  }

  std::ostream& os_;
  std::vector<Scope> stack_;
  bool fresh_ = true;         // no sibling emitted yet in this scope
  bool pending_key_ = false;  // a Key was written, its value is next
};

}  // namespace hmdsm
