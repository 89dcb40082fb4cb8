//===- RequestLog.cpp - Structured serve-mode request log --------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "server/RequestLog.h"

#include "support/JsonWriter.h"

#include <chrono>

using namespace igen;
using namespace igen::server;

namespace {

uint64_t monotonicUs() {
  return (uint64_t)std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

RequestLog::RequestLog(const std::string &Path) {
  if (Path.empty())
    return;
  if (Path == "-") {
    Out = stderr;
    return;
  }
  Out = std::fopen(Path.c_str(), "a");
  if (!Out) {
    std::fprintf(stderr,
                 "igen: serve: warning: cannot open IGEN_SERVE_LOG "
                 "'%s'; request logging disabled\n",
                 Path.c_str());
    return;
  }
  OwnsFile = true;
}

RequestLog::~RequestLog() {
  if (Out && OwnsFile)
    std::fclose(Out);
}

void RequestLog::line(std::string Json) {
  Json += '\n';
  std::lock_guard<std::mutex> G(Mu);
  std::fwrite(Json.data(), 1, Json.size(), Out);
  std::fflush(Out);
}

void RequestLog::request(std::string_view Verb, std::string_view Hash,
                         uint64_t LatencyUs, const RequestPhases &Phases,
                         std::string_view Outcome) {
  if (!Out)
    return;
  JsonWriter W(JsonWriter::Style::Compact);
  W.beginObject();
  W.field("ts_us", monotonicUs());
  W.field("kind", std::string_view("request"));
  W.field("verb", Verb);
  if (!Hash.empty())
    W.field("hash", Hash);
  W.field("latency_us", LatencyUs);
  W.field("parse_us", Phases.ParseUs);
  W.field("eval_us", Phases.EvalUs);
  W.field("render_us", Phases.RenderUs);
  W.field("outcome", Outcome);
  W.endObject();
  line(W.take());
}

void RequestLog::event(std::string_view Event, std::string_view Detail) {
  if (!Out)
    return;
  JsonWriter W(JsonWriter::Style::Compact);
  W.beginObject();
  W.field("ts_us", monotonicUs());
  W.field("kind", std::string_view("event"));
  W.field("event", Event);
  W.field("detail", Detail);
  W.endObject();
  line(W.take());
}
