//===- main.cpp - perfbench subcommands -----------------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
//   perfbench client --workload W --seed N --seconds S --socket P --out F
//   perfbench replay --workload W --seed N --budget S --out F [--spans F]
//   perfbench aot --dir D --seed N --seconds S --out F
//   perfbench selftest --seed N
//
// run.py drives these; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "commands.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: perfbench client|replay|aot|selftest ...\n");
    return 2;
  }
  std::string Cmd = Argv[1];
  std::map<std::string, std::string> A;
  for (int I = 2; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K.rfind("--", 0) != 0) {
      std::fprintf(stderr, "perfbench: unexpected argument '%s'\n", Argv[I]);
      return 2;
    }
    bool Flag = I + 1 >= Argc || std::string(Argv[I + 1]).rfind("--", 0) == 0;
    A[K.substr(2)] = Flag ? "1" : Argv[++I];
  }
  auto Num = [&](const char *K, double Def) {
    auto It = A.find(K);
    return It == A.end() ? Def : std::strtod(It->second.c_str(), nullptr);
  };
  uint64_t Seed = (uint64_t)Num("seed", 1);

  if (Cmd == "client") {
    pb::ClientOptions O;
    O.Workload = A["workload"];
    O.Seed = Seed;
    O.Seconds = Num("seconds", 10);
    O.Socket = A["socket"];
    O.Out = A["out"];
    return pb::runClient(O);
  }
  if (Cmd == "replay") {
    pb::ReplayOptions O;
    O.Workload = A["workload"];
    O.Seed = Seed;
    O.BudgetSeconds = Num("budget", 5);
    O.Out = A["out"];
    O.Spans = A["spans"];
    return pb::runReplay(O);
  }
  if (Cmd == "aot") {
    pb::AotOptions O;
    O.Dir = A["dir"];
    O.Seed = Seed;
    O.Seconds = Num("seconds", 10);
    O.Out = A["out"];
    return pb::runAot(O);
  }
  if (Cmd == "selftest")
    return pb::runSelfTest(Seed);
  std::fprintf(stderr, "perfbench: unknown subcommand '%s'\n", Cmd.c_str());
  return 2;
}
