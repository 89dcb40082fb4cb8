//===- Pipeline.h - Full IGen compilation pipeline --------------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry points chaining the pipeline of Fig. 1. One front half, parse ->
/// type check -> lowering facts -> subset check (LoweringRules.h), feeds
/// two back ends: compileToIntervals prints interval C (the igen CLI
/// driver, the build-time kernel generation, the integration tests), and
/// compileToProgram lowers to the flat eval code the serve daemon runs
/// (transform/EvalCode.h) without printing any C. Both fail at the same
/// stage with the same diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_TRANSFORM_PIPELINE_H
#define IGEN_TRANSFORM_PIPELINE_H

#include "support/Diagnostics.h"
#include "transform/IntervalTransform.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>

namespace igen {

class ASTContext;
namespace evalcode {
struct EvalModule;
}

/// Pipeline stage that produced the first error, for callers (the
/// driver) that map failures to distinct exit codes. Cancelled means a
/// caller-provided cancellation check fired at a stage boundary (the
/// serve daemon uses this for wall-clock compile deadlines).
enum class PipelineStage { None, Parse, Sema, Transform, Cancelled };

/// Cooperative cancellation for compileToProgram: polled at every stage
/// boundary (before parse, sema, the subset check, and after lowering).
/// Returning
/// true abandons the pipeline; the partial AST is discarded exactly as
/// on a compile error, so cancellation leaves no state behind.
using PipelineCancelFn = std::function<bool()>;

/// A compiled program kept in memory: the type-checked AST (owned, so
/// references into it stay valid for the lifetime of this object) and,
/// for f64 programs, the flat register code the serve evaluator executes
/// (transform/EvalCode.h). This is the re-entrant pipeline product the
/// serve mode caches.
struct InMemoryProgram {
  std::unique_ptr<ASTContext> Ast;
  /// Interval C text: empty for programs built by compileToProgram,
  /// which prints none (compileToIntervals is the C back end).
  std::string EmittedC;
  TransformOptions Opts;
  std::unique_ptr<const evalcode::EvalModule> Eval;

  InMemoryProgram();
  ~InMemoryProgram();
  InMemoryProgram(InMemoryProgram &&) = default;
  InMemoryProgram &operator=(InMemoryProgram &&) = default;
};

/// Re-entrant pipeline entry: compiles C source text and returns the
/// program in memory (AST + eval code), printing no C. Returns nullptr
/// (with diagnostics in \p Diags) on any error; the partially built AST
/// is discarded, so a failed run leaves no state behind — callers may
/// invoke this concurrently from many threads. \p SitesOut, when
/// non-null, receives an empty table: profile sites exist only in
/// emitted C.
std::unique_ptr<InMemoryProgram>
compileToProgram(std::string_view Source, const TransformOptions &Opts,
                 DiagnosticsEngine &Diags,
                 ProfileSiteTable *SitesOut = nullptr,
                 PipelineStage *FailedStage = nullptr,
                 const PipelineCancelFn &Cancel = {});

/// Compiles C source text to interval C. Returns std::nullopt (with
/// diagnostics in \p Diags) on any error. With Opts.Profile set and
/// \p SitesOut non-null, receives the compile-time profile site table.
/// \p FailedStage, when non-null, receives the stage that failed (None
/// on success). Parsing continues past recoverable syntax errors, so a
/// Parse failure can carry several diagnostics.
std::optional<std::string> compileToIntervals(std::string_view Source,
                                              const TransformOptions &Opts,
                                              DiagnosticsEngine &Diags,
                                              ProfileSiteTable *SitesOut =
                                                  nullptr,
                                              PipelineStage *FailedStage =
                                                  nullptr);

} // namespace igen

#endif // IGEN_TRANSFORM_PIPELINE_H
