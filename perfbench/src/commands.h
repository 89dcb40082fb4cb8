//===- commands.h - Entry points of the perfbench subcommands ---*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMANDS_H
#define PERFBENCH_COMMANDS_H

#include <cstdint>
#include <string>

namespace pb {

struct ClientOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  std::string Socket;
  std::string Out; ///< result JSON
};

/// Drives a running `igen --serve` daemon with one serve workload.
/// Prints "PLACE" early in the warm-up and goes on once a line arrives
/// on stdin; prints "READY" once set-up and warm-up are done, then
/// measures.
int runClient(const ClientOptions &Opt);

struct ReplayOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double BudgetSeconds = 5; ///< wall time for the traced pass
  std::string Out;          ///< per-layer metrics JSON
  std::string Spans;        ///< span file
};

/// Replays a serve workload's frames in-process, once traced (spans
/// around the calls into each layer) and once untraced. The cores take
/// their cache capacity from IGEN_SERVE_CACHE, as the daemon does.
int runReplay(const ReplayOptions &Opt);

struct AotOptions {
  std::string Dir; ///< directory with the built kernel libraries
  uint64_t Seed = 1;
  double Seconds = 10;
  std::string Out;
};

/// Loads the igen-generated and native kernel builds from Dir, checks
/// every output against the oracle and times generated against native.
int runAot(const AotOptions &Opt);

/// Generator self-test: determinism per seed, every valid module
/// compiles and evaluates inside its oracle, every invalid one fails at
/// its stage.
int runSelfTest(uint64_t Seed);

} // namespace pb

#endif // PERFBENCH_COMMANDS_H
