//===- Pipeline.cpp - Full IGen compilation pipeline -------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"

#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "transform/EvalCode.h"
#include "transform/LoweringRules.h"

using namespace igen;

InMemoryProgram::InMemoryProgram() = default;
InMemoryProgram::~InMemoryProgram() = default;

namespace {

/// The front half both back ends share: parse, type check, lowering
/// facts and the subset check. Null on any error, with \p Failed set to
/// the stage; \p Cancel is polled before each stage.
std::unique_ptr<ASTContext> frontHalf(std::string_view Source,
                                      const TransformOptions &Opts,
                                      DiagnosticsEngine &Diags,
                                      PipelineStage &Failed,
                                      const PipelineCancelFn &Cancel) {
  auto Stop = [&](PipelineStage S) {
    Failed = S;
    return nullptr;
  };
  auto Cancelled = [&] { return Cancel && Cancel(); };
  Failed = PipelineStage::None;
  if (Cancelled())
    return Stop(PipelineStage::Cancelled);
  auto Ast = std::make_unique<ASTContext>();
  Parser P(Source, *Ast, Diags);
  if (!P.parseTranslationUnit())
    return Stop(PipelineStage::Parse);
  if (Cancelled())
    return Stop(PipelineStage::Cancelled);
  Sema S(*Ast, Diags);
  if (!S.run())
    return Stop(PipelineStage::Sema);
  if (Cancelled())
    return Stop(PipelineStage::Cancelled);
  if (!checkLoweringSubset(*Ast, Opts, Diags))
    return Stop(PipelineStage::Transform);
  return Ast;
}

} // namespace

std::unique_ptr<InMemoryProgram>
igen::compileToProgram(std::string_view Source, const TransformOptions &Opts,
                       DiagnosticsEngine &Diags, ProfileSiteTable *SitesOut,
                       PipelineStage *FailedStage,
                       const PipelineCancelFn &Cancel) {
  PipelineStage Failed;
  auto Prog = std::make_unique<InMemoryProgram>();
  Prog->Opts = Opts;
  Prog->Ast = frontHalf(Source, Opts, Diags, Failed, Cancel);
  if (Prog->Ast && Opts.Prec != TransformOptions::Precision::DoubleDouble)
    Prog->Eval = evalcode::lowerForEval(*Prog->Ast); // the serve tier's code
  if (Prog->Ast && Cancel && Cancel())
    Failed = PipelineStage::Cancelled;
  if (SitesOut)
    *SitesOut = ProfileSiteTable(); // sites belong to emitted C
  if (FailedStage)
    *FailedStage = Failed;
  if (Failed != PipelineStage::None)
    return nullptr; // the partial AST dies with Prog
  return Prog;
}

std::optional<std::string>
igen::compileToIntervals(std::string_view Source,
                         const TransformOptions &Opts,
                         DiagnosticsEngine &Diags,
                         ProfileSiteTable *SitesOut,
                         PipelineStage *FailedStage) {
  PipelineStage Failed;
  std::unique_ptr<ASTContext> Ast =
      frontHalf(Source, Opts, Diags, Failed, /*Cancel=*/{});
  if (FailedStage)
    *FailedStage = Failed;
  if (!Ast)
    return std::nullopt;
  return transformToIntervals(*Ast, Diags, Opts, SitesOut);
}
