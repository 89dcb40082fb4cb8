//===- JsonWriter.h - Minimal streaming JSON emitter ------------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One shared JSON emitter for every machine-readable document the
/// project writes: the bench `--json` files, the profiler report
/// (IGEN_PROF_OUT / igen_prof_report_json), the driver's `--profile`
/// site-table sidecar, and every `igen --serve` response and request-log
/// line. Streaming with explicit begin/end calls, comma and indentation
/// management, and full string escaping; every report carries a
/// top-level "schema_version" field so downstream tooling can detect
/// format changes.
///
/// Numbers are spelled with std::to_chars: doubles in their shortest
/// round-trip form (parsing the text gives back the same bits), and the
/// spelling never depends on the thread's rounding mode, unlike
/// printf("%.17g") under FE_UPWARD.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_SUPPORT_JSONWRITER_H
#define IGEN_SUPPORT_JSONWRITER_H

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace igen {

/// Streaming JSON writer. Values inside an object must be preceded by
/// key(); values inside an array are appended directly. Non-finite
/// doubles are emitted as JSON strings ("inf", "-inf", "nan") since JSON
/// has no literal for them.
///
/// Pretty (the default) indents by two spaces, one value per line, for
/// files people read. Compact renders the same document on one line: no
/// newlines and no indentation, but keys keep their `"key": value`
/// separator and take() adds no trailing newline, so a compact document
/// equals its pretty twin with every newline and the indent after it
/// removed. The serve protocol's one-line frames use compact.
class JsonWriter {
public:
  enum class Style { Pretty, Compact };

  explicit JsonWriter(Style S = Style::Pretty) : Pretty(S == Style::Pretty) {}

  /// Pre-sizes the output buffer for a document of about \p Bytes.
  void reserve(size_t Bytes) {
    if (Out.size() < Bytes)
      Out.resize(Bytes);
  }

  void beginObject() { open('{'); }
  void endObject() { close('}'); }
  void beginArray() { open('['); }
  void endArray() { close(']'); }

  void key(std::string_view K) {
    prepareValue();
    appendQuoted(K);
    put(": ");
    PendingKey = true;
  }

  void value(std::string_view S) {
    prepareValue();
    appendQuoted(S);
  }
  void value(const char *S) { value(std::string_view(S)); }
  void value(bool B) {
    prepareValue();
    put(B ? std::string_view("true") : std::string_view("false"));
  }
  void value(double D) {
    prepareValue();
    if (!std::isfinite(D)) {
      put(std::isnan(D) ? "\"nan\"" : (D > 0 ? "\"inf\"" : "\"-inf\""));
      return;
    }
    appendNumber(D);
  }
  void value(uint64_t V) {
    prepareValue();
    appendNumber(V);
  }
  void value(int64_t V) {
    prepareValue();
    appendNumber(V);
  }
  void value(int V) { value(static_cast<int64_t>(V)); }
  void value(unsigned V) { value(static_cast<uint64_t>(V)); }

  /// key() + value() in one call.
  template <typename T> void field(std::string_view K, T V) {
    key(K);
    value(V);
  }

  /// The finished document (call after the outermost end*()). Pretty
  /// documents end with a newline; compact ones are a bare line.
  std::string take() {
    if (Pretty)
      put('\n');
    Out.resize(Len);
    Len = 0;
    return std::move(Out);
  }

  /// Writes the finished document to \p Path; false on I/O failure.
  bool writeTo(const char *Path) {
    std::string Text = take();
    std::FILE *F = std::fopen(Path, "w");
    if (!F)
      return false;
    bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
    return (std::fclose(F) == 0) && Ok;
  }

private:
  struct Level {
    bool HasItems = false;
  };

  void open(char C) {
    prepareValue();
    put(C);
    Levels.push_back({});
  }

  void close(char C) {
    bool Had = !Levels.empty() && Levels.back().HasItems;
    if (!Levels.empty())
      Levels.pop_back();
    if (Had && Pretty) {
      put('\n');
      indent();
    }
    put(C);
  }

  /// Comma/newline/indent before the next value (or key) at this level.
  void prepareValue() {
    if (PendingKey) { // value completing a "key": pair
      PendingKey = false;
      return;
    }
    if (Levels.empty())
      return;
    if (Levels.back().HasItems)
      put(',');
    Levels.back().HasItems = true;
    if (Pretty) {
      put('\n');
      indent();
    }
  }

  void indent() {
    size_t N = Levels.size() * 2;
    std::memset(grow(N), ' ', N);
  }

  /// Claims \p N bytes at the end of the document. Out is sized ahead of
  /// Len and trimmed by take(), so the many small appends of a document
  /// cost a pointer bump instead of a std::string append each.
  char *grow(size_t N) {
    if (Out.size() - Len < N)
      Out.resize(std::max(Out.size() * 2, Len + N + 64));
    char *P = Out.data() + Len;
    Len += N;
    return P;
  }
  void put(char C) { *grow(1) = C; }
  void put(std::string_view S) {
    if (!S.empty())
      std::memcpy(grow(S.size()), S.data(), S.size());
  }

  /// Shortest round-trip spelling for doubles, plain decimal for
  /// integers; 32 bytes hold the longest of either.
  template <typename T> void appendNumber(T V) {
    constexpr size_t Max = 32;
    char *P = grow(Max);
    std::to_chars_result R = std::to_chars(P, P + Max, V);
    Len -= Max - static_cast<size_t>(R.ptr - P);
  }

  static bool needsEscape(char C) {
    return C == '"' || C == '\\' || static_cast<unsigned char>(C) < 0x20;
  }

  /// Quotes \p S. The common case, nothing to escape, is one
  /// branch-free scan and one copy.
  void appendQuoted(std::string_view S) {
    bool Clean = true;
    for (char C : S)
      Clean &= !needsEscape(C);
    put('"');
    if (Clean) {
      put(S);
      put('"');
      return;
    }
    for (char C : S) {
      switch (C) {
      case '"':
        put("\\\"");
        break;
      case '\\':
        put("\\\\");
        break;
      case '\n':
        put("\\n");
        break;
      case '\t':
        put("\\t");
        break;
      case '\r':
        put("\\r");
        break;
      default:
        if (static_cast<unsigned char>(C) < 0x20) {
          char Buf[8];
          std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
          put(Buf);
        } else {
          put(C);
        }
      }
    }
    put('"');
  }

  std::string Out; ///< Out[0, Len) is the document so far
  size_t Len = 0;
  std::vector<Level> Levels;
  bool PendingKey = false;
  bool Pretty;
};

} // namespace igen

#endif // IGEN_SUPPORT_JSONWRITER_H
