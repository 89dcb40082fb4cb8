//===- RequestLog.h - Structured serve-mode request log ---------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One JSON line per request (and per lifecycle event) for the --serve
/// daemon, enabled by IGEN_SERVE_LOG=<path> ("-" for stderr). The log is
/// the operator's flight recorder: every line carries a monotonic
/// timestamp, the verb, the content hash when one is known, the
/// latency, and the outcome code ("ok" or the typed error.code), so a
/// drained or crashed daemon can be reconstructed after the fact.
///
/// Request lines:
///   {"ts_us":N,"kind":"request","verb":"eval","hash":"<16hex>",
///    "latency_us":N,"parse_us":N,"eval_us":N,"render_us":N,
///    "outcome":"ok"}
/// The phase fields split latency_us: parse_us is the frame's JSON
/// parse, eval_us the interval evaluation (0 unless an eval ran), and
/// render_us the time from the end of the compile or eval work to the
/// finished response (0 for other ops and for requests turned away
/// before that work). The daemon reads these clocks only while the log
/// is enabled.
/// Event lines (drain, recovery, shutdown):
///   {"ts_us":N,"kind":"event","event":"cache_replay",
///    "detail":"replayed=3 skipped=1"}
///
/// Writes are line-buffered under a mutex — concurrent workers never
/// interleave partial lines — and every line is flushed, so a kill -9
/// loses at most the request in flight. A log that cannot be opened
/// warns once and disables itself; logging failures must never take
/// the daemon down.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_SERVER_REQUESTLOG_H
#define IGEN_SERVER_REQUESTLOG_H

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>

namespace igen {
namespace server {

/// Per-phase microseconds of one request (see the file comment).
struct RequestPhases {
  uint64_t ParseUs = 0;
  uint64_t EvalUs = 0;
  uint64_t RenderUs = 0;
};

class RequestLog {
public:
  /// \p Path: "" disables, "-" logs to stderr, anything else appends to
  /// that file (created if missing). Open failures warn on stderr and
  /// leave the log disabled.
  explicit RequestLog(const std::string &Path);
  ~RequestLog();

  RequestLog(const RequestLog &) = delete;
  RequestLog &operator=(const RequestLog &) = delete;

  bool enabled() const { return Out != nullptr; }

  /// One completed request. \p Hash may be empty (no content hash was
  /// derivable, e.g. malformed frames); \p Outcome is "ok" or the typed
  /// error code.
  void request(std::string_view Verb, std::string_view Hash,
               uint64_t LatencyUs, const RequestPhases &Phases,
               std::string_view Outcome);

  /// One lifecycle event (drain_begin, drain_complete, cache_replay,
  /// shutdown, ...) with a free-form detail string.
  void event(std::string_view Event, std::string_view Detail);

private:
  FILE *Out = nullptr;
  bool OwnsFile = false;
  std::mutex Mu;

  void line(std::string Json);
};

} // namespace server
} // namespace igen

#endif // IGEN_SERVER_REQUESTLOG_H
