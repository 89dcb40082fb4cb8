//===- replay.cpp - Traced in-process replay of a serve workload -----------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Feeds a workload's exact frames to an in-process ServerCore. Every
// frame is handled once by ServerCore::handleFrame (the real request
// path) and then decomposed by calling the public function of each layer
// on the same input: parseJson, FunctionCache::lookup, evalFunction under
// a RoundUpwardScope, and for cache misses compileToProgram plus its
// stages (Parser::parseTranslationUnit, Sema::run, transformToIntervals).
// Each call is wrapped in a span (name, start, end, parent, request id)
// kept in memory and written out at the end. No span lives inside src/.
//
// The layer times therefore come from warm re-executions of each frame,
// not from the request itself. A second, untraced ServerCore handles the
// same frames in lockstep; the tracing overhead is the traced side's time
// per frame (handleFrame, its spans and the decomposition) minus the
// untraced core's handleFrame.
//
//===----------------------------------------------------------------------===//

#include "commands.h"
#include "workloads.h"

#include "frontend/AST.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "interval/Rounding.h"
#include "server/Evaluator.h"
#include "server/Json.h"
#include "server/ServerCore.h"

using namespace pb;
using namespace igen;
using namespace igen::server;

namespace {

/// Cap on the replayed measured frames (the budget usually ends first).
constexpr uint64_t MaxFrames = 20000;

struct Span {
  const char *Name;
  uint64_t Start, End;
  int Parent; ///< index of the enclosing span, -1 for a request root
  uint64_t Request;
};

class Tracer {
public:
  std::vector<Span> Spans;

  /// Opens a span; returns its index.
  int open(const char *Name, int Parent, uint64_t Req) {
    Spans.push_back({Name, nowNs(), 0, Parent, Req});
    return (int)Spans.size() - 1;
  }
  /// Closes span \p I; returns its duration in ns.
  uint64_t close(int I) {
    if (I < 0)
      return 0;
    Spans[I].End = nowNs();
    return Spans[I].End - Spans[I].Start;
  }

  std::string json() const {
    std::string S = "{\"spans\": [\n";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &X = Spans[I];
      char Buf[256];
      std::snprintf(Buf, sizeof(Buf),
                    "%s{\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": "
                    "%llu, \"parent\": %d, \"request\": %llu}",
                    I ? ",\n" : "", X.Name, (unsigned long long)X.Start,
                    (unsigned long long)X.End, X.Parent,
                    (unsigned long long)X.Request);
      S += Buf;
    }
    return S + "\n]}\n";
  }
};

/// Per-layer sums over the replayed measured frames (ns, counts).
struct Sums {
  uint64_t Frames = 0, Evals = 0, Compiled = 0;
  double Traced = 0; ///< handleFrame + spans + decomposition
  double Handle = 0, Parse = 0, Lookup = 0, Eval = 0, Compile = 0;
  double FeParse = 0, FeSema = 0, Lower = 0;
  double ReqBytes = 0, RespBytes = 0, EmittedBytes = 0, EvalOps = 0;
};

/// The compile options of a compile frame, as the daemon reads them.
TransformOptions compileOptions(const JsonValue *O) {
  TransformOptions Opts;
  Opts.SourceName = "<serve>";
  if (!O)
    return Opts;
  auto Str = [&](const char *K) -> std::string {
    const JsonValue *V = O->member(K);
    return V && V->isString() ? V->stringValue() : "";
  };
  auto Flag = [&](const char *K) {
    const JsonValue *V = O->member(K);
    return V && V->isBool() && V->boolValue();
  };
  if (Str("precision") == "dd")
    Opts.Prec = TransformOptions::Precision::DoubleDouble;
  Opts.ScalarLibrary = Str("target") == "ss";
  if (Str("branch") == "join")
    Opts.Branches = TransformOptions::BranchPolicy::Join;
  if (const JsonValue *L = O->member("opt_level"))
    Opts.OptLevel = (int)L->numberValue();
  Opts.EnableReductions = Flag("reductions");
  Opts.EnableBatchLoops = Flag("batch_loops");
  return Opts;
}

Interval intervalOf(const JsonValue &V) {
  if (V.isNumber())
    return Interval::fromPoint(V.numberValue());
  double Lo = 0, Hi = 0;
  if (const JsonValue *H = V.member("hex")) {
    doubleOfHex(H->stringValue(), Lo);
    return Interval::fromPoint(Lo);
  }
  if (const JsonValue *L = V.member("lo_hex")) {
    doubleOfHex(L->stringValue(), Lo);
    doubleOfHex(V.member("hi_hex")->stringValue(), Hi);
    return Interval::fromEndpoints(Lo, Hi);
  }
  return Interval::fromEndpoints(V.member("lo")->numberValue(),
                                 V.member("hi")->numberValue());
}

std::vector<EvalArg> argsOf(const JsonValue &Req) {
  std::vector<EvalArg> Args;
  const JsonValue *A = Req.member("args");
  if (!A)
    return Args;
  for (const JsonValue &V : A->arrayValue()) {
    EvalArg X;
    if (const JsonValue *I = V.member("int")) {
      X.K = EvalArg::Kind::Int;
      X.IntValue = (long long)I->numberValue();
    } else if (const JsonValue *Arr = V.member("array")) {
      X.K = EvalArg::Kind::Array;
      for (const JsonValue &E : Arr->arrayValue())
        X.Elements.push_back(intervalOf(E));
    } else {
      X.Scalar = intervalOf(V);
    }
    Args.push_back(std::move(X));
  }
  return Args;
}

/// Decomposes one already-handled frame into its layers.
void decompose(ServerCore &Core, std::string_view Frame,
               std::string_view Resp, uint64_t Req, int Root, Tracer &T,
               Sums &S) {
  int Sp = T.open("parseJson", Root, Req);
  JsonParseResult P = parseJson(Frame);
  S.Parse += (double)T.close(Sp);
  if (!P.Ok)
    return;
  const JsonValue &J = P.Value;
  const std::string &Op = J.member("op")->stringValue();
  uint64_t Hash = 0;
  std::string_view Handle =
      Op == "eval" ? std::string_view(J.member("handle")->stringValue())
                   : ResponseScan(Resp).field("handle");
  if (parseHandle(Handle, Hash)) {
    Sp = T.open("FunctionCache::lookup", Root, Req);
    std::shared_ptr<const InMemoryProgram> Prog =
        Core.cache().lookup(Hash, /*CountMiss=*/false);
    S.Lookup += (double)T.close(Sp);
    if (Op == "eval" && Prog) {
      std::vector<EvalArg> Args = argsOf(J);
      EvalOptions EO;
      EO.JoinBranches =
          Prog->Opts.Branches == TransformOptions::BranchPolicy::Join;
      EO.EnableReductions = Prog->Opts.EnableReductions;
      if (const JsonValue *O = J.member("options")) {
        if (const JsonValue *B = O->member("branch"))
          EO.JoinBranches = B->stringValue() == "join";
        if (const JsonValue *R = O->member("reductions"))
          EO.EnableReductions = R->boolValue();
      }
      RoundUpwardScope Up;
      Sp = T.open("evalFunction", Root, Req);
      EvalResult R = evalFunction(*Prog, J.member("function")->stringValue(),
                                  Args, EO);
      S.Eval += (double)T.close(Sp);
      ++S.Evals;
      S.EvalOps += (double)R.OpsExecuted;
    }
  }
  if (Op != "compile" || ResponseScan(Resp).field("cached") == "true")
    return;

  // A compile that ran the pipeline: once whole, once stage by stage.
  const std::string &Src = J.member("source")->stringValue();
  TransformOptions Opts = compileOptions(J.member("options"));
  DiagnosticsEngine Diags;
  Sp = T.open("compileToProgram", Root, Req);
  std::unique_ptr<InMemoryProgram> Prog = compileToProgram(Src, Opts, Diags);
  S.Compile += (double)T.close(Sp);
  if (Prog) {
    ++S.Compiled;
    S.EmittedBytes += (double)Prog->EmittedC.size();
  }
  int Stages = T.open("pipeline stages", Root, Req);
  ASTContext Ctx;
  DiagnosticsEngine StageDiags;
  Sp = T.open("Parser::parseTranslationUnit", Stages, Req);
  Parser Ps(Src, Ctx, StageDiags);
  bool Ok = Ps.parseTranslationUnit();
  S.FeParse += (double)T.close(Sp);
  if (Ok) {
    Sp = T.open("Sema::run", Stages, Req);
    Sema Sm(Ctx, StageDiags);
    Ok = Sm.run();
    S.FeSema += (double)T.close(Sp);
  }
  if (Ok) {
    Sp = T.open("transformToIntervals", Stages, Req);
    std::string Out = transformToIntervals(Ctx, StageDiags, Opts);
    S.Lower += (double)T.close(Sp);
  }
  T.close(Stages);
}

/// Replays the workload through two ServerCores in lockstep: every
/// frame goes to an untraced core and to a traced one (whose call is
/// followed by the layer decomposition), in alternating order, so a
/// slow spell of the host hits both alike. Returns the frames replayed
/// after the warm-up, or -1 when an answer was wrong.
long long replay(const ReplayOptions &Opt, Tracer &T, Sums &Tr, Sums &Un) {
  std::unique_ptr<Workload> W = makeServeWorkload(Opt.Workload, Opt.Seed);
  ServerCoreConfig Cfg; // cache capacity from IGEN_SERVE_CACHE
  ServerCore Traced(Cfg), Untraced(Cfg);
  std::vector<std::unique_ptr<Session>> Ss;
  for (int C = 0; C < W->connections(); ++C)
    Ss.push_back(W->session(C));
  for (const std::string &F : W->setupFrames()) {
    std::string Resp = Traced.handleFrame(F);
    Untraced.handleFrame(F);
    for (auto &Sess : Ss)
      Sess->bind(std::string(ResponseScan(Resp).field("handle")));
  }

  auto Timed = [](ServerCore &Core, const std::string &Frame, double &Ns) {
    uint64_t T0 = nowNs();
    std::string Resp = Core.handleFrame(Frame);
    Ns += (double)(nowNs() - T0);
    return Resp;
  };
  auto Step = [&](Session &Sess, bool Measure, uint64_t Req) {
    Sess.prepare();
    std::string Frame = Sess.send();
    double Discard = 0;
    if (Req % 2)
      Timed(Untraced, Frame, Measure ? Un.Handle : Discard);
    uint64_t T0 = nowNs();
    int Root = Measure ? T.open("request", -1, Req) : -1;
    int Sp = Measure ? T.open("ServerCore::handleFrame", Root, Req) : -1;
    std::string Resp = Timed(Traced, Frame, Measure ? Tr.Handle : Discard);
    T.close(Sp);
    if (Measure) {
      decompose(Traced, Frame, Resp, Req, Root, T, Tr);
      T.close(Root);
      Tr.Traced += (double)(nowNs() - T0);
      ++Tr.Frames;
      Tr.ReqBytes += (double)Frame.size();
      Tr.RespBytes += (double)Resp.size();
    }
    if (Req % 2 == 0)
      Timed(Untraced, Frame, Measure ? Un.Handle : Discard);
    Outcome O = Sess.check(Resp);
    if (!O.Ok) {
      std::fprintf(stderr, "perfbench: replay answer wrong: %s\n",
                   O.Detail.c_str());
      return false;
    }
    return true;
  };

  for (auto &Sess : Ss)
    for (int K = 0; K < W->warmupFrames() || Sess->followUpPending(); ++K)
      if (!Step(*Sess, /*Measure=*/false, 0))
        return -1;
  double Until = nowSeconds() + Opt.BudgetSeconds;
  uint64_t Req = 0;
  while (nowSeconds() < Until && Req < MaxFrames)
    for (auto &Sess : Ss)
      if (!Step(*Sess, /*Measure=*/true, Req++))
        return -1;

  std::string FirstFailure;
  for (auto &Sess : Ss)
    if (Sess->verifyDeferred(FirstFailure)) {
      std::fprintf(stderr, "perfbench: replay answer wrong: %s\n",
                   FirstFailure.c_str());
      return -1;
    }
  return (long long)Req;
}

} // namespace

int pb::runReplay(const ReplayOptions &Opt) {
  if (!makeServeWorkload(Opt.Workload, Opt.Seed)) {
    std::fprintf(stderr, "perfbench: unknown serve workload '%s'\n",
                 Opt.Workload.c_str());
    return 2;
  }
  Tracer T;
  Sums Tr, Un;
  if (replay(Opt, T, Tr, Un) <= 0)
    return 1;

  auto PerFrame = [&](double Ns) { return Ns / 1000.0 / (double)Tr.Frames; };
  std::string J = "{";
  jsonNum(J, "replay.frames", (double)Tr.Frames);
  jsonNum(J, "core.handle_us", PerFrame(Tr.Handle));
  jsonNum(J, "replay.handle_untraced_us", PerFrame(Un.Handle));
  jsonNum(J, "trace.overhead_us", PerFrame(Tr.Traced - Un.Handle));
  jsonNum(J, "json.parse_us", PerFrame(Tr.Parse));
  jsonNum(J, "json.request_bytes", Tr.ReqBytes / Tr.Frames);
  jsonNum(J, "core.response_bytes", Tr.RespBytes / Tr.Frames);
  jsonNum(J, "cache.lookup_us", PerFrame(Tr.Lookup));
  jsonNum(J, "eval.us", PerFrame(Tr.Eval));
  jsonNum(J, "eval.ops", Tr.Evals ? Tr.EvalOps / Tr.Evals : 0.0);
  jsonNum(J, "eval.ns_per_op", Tr.EvalOps > 0 ? Tr.Eval / Tr.EvalOps : 0.0);
  jsonNum(J, "pipeline.compile_us", PerFrame(Tr.Compile));
  jsonNum(J, "frontend.parse_us", PerFrame(Tr.FeParse));
  jsonNum(J, "frontend.sema_us", PerFrame(Tr.FeSema));
  jsonNum(J, "transform.lower_us", PerFrame(Tr.Lower));
  jsonNum(J, "transform.emitted_bytes",
          Tr.Compiled ? Tr.EmittedBytes / Tr.Compiled : 0.0);
  jsonNum(J, "core.render_us",
          std::max(0.0, PerFrame(Tr.Handle - Tr.Parse - Tr.Lookup - Tr.Eval -
                                 Tr.Compile)));
  J += "}\n";
  if (!writeFile(Opt.Out, J) || (!Opt.Spans.empty() &&
                                 !writeFile(Opt.Spans, T.json()))) {
    std::fprintf(stderr, "perfbench: cannot write replay output\n");
    return 1;
  }
  return 0;
}
