//===- client.cpp - Closed-loop load client for igen --serve ---------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// One thread multiplexes every connection of a workload with poll(). Each
// connection is a closed loop: it sends its next frame only after the
// full answer to the previous one arrived, like a caller that waits for
// its reply. Latency is taken from the first byte written to the last
// byte of the answer line; the answer is judged against the oracle after
// the clock is read, and the following frame is made ready while the
// daemon works on the one just sent. The measured phase is a series of
// one-second windows; after each, the load pauses while the native calls
// the slowdown compares against are timed. Throughput and latency are
// pooled over every window of the run. A client pinned to one CPU
// busy-polls, and keeps the daemon's CPUs from halting with idle-priority
// spinners (IdleSpinners).
//
//===----------------------------------------------------------------------===//

#include "commands.h"

#include "workloads.h"

#include <cerrno>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <thread>

using namespace pb;

namespace {

/// Keeps every CPU but the client's out of its idle state while the
/// client runs: one thread per CPU, at SCHED_IDLE priority, that spins
/// and that the kernel sets aside the moment a daemon thread wants the
/// CPU. An idle virtual CPU halts, and waking it again is left to the
/// host's scheduler; on a busy host that wait (the guest sees it as
/// steal time) reached 15-25% of the daemon's CPUs and cut its
/// throughput by up to half for minutes at a time. With the spinners a
/// wake-up is a context switch inside the guest.
class IdleSpinners {
public:
  explicit IdleSpinners(int OwnCpu) {
    long N = ::sysconf(_SC_NPROCESSORS_ONLN);
    for (int Cpu = 0; Cpu < N && Cpu < CPU_SETSIZE; ++Cpu)
      if (Cpu != OwnCpu)
        Threads.emplace_back([this, Cpu] { spin(Cpu); });
  }
  ~IdleSpinners() {
    Stop.store(true, std::memory_order_relaxed);
    for (std::thread &T : Threads)
      T.join();
  }

private:
  void spin(int Cpu) {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    CPU_SET(Cpu, &Set);
    sched_param P{};
    if (::sched_setaffinity(0, sizeof(Set), &Set) != 0 ||
        ::sched_setscheduler(0, SCHED_IDLE, &P) != 0)
      return; // a CPU this process may not use
    while (!Stop.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }

  std::atomic<bool> Stop{false};
  std::vector<std::thread> Threads;
};

int connectTo(const std::string &Path, double TimeoutS) {
  double Until = nowSeconds() + TimeoutS;
  for (;;) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return -1;
    sockaddr_un A{};
    A.sun_family = AF_UNIX;
    std::snprintf(A.sun_path, sizeof(A.sun_path), "%s", Path.c_str());
    if (::connect(Fd, (sockaddr *)&A, sizeof(A)) == 0)
      return Fd;
    ::close(Fd);
    if (nowSeconds() > Until)
      return -1;
    ::usleep(1000);
  }
}

struct Conn {
  int Fd = -1;
  std::string Out;   ///< frame bytes not yet written
  size_t OutPos = 0;
  std::string In;    ///< bytes of the answer being read
  uint64_t SentAt = 0;
  bool Busy = false; ///< a frame is outstanding
};

bool writeSome(Conn &C) {
  while (C.OutPos < C.Out.size()) {
    ssize_t N = ::send(C.Fd, C.Out.data() + C.OutPos, C.Out.size() - C.OutPos,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (N > 0) {
      C.OutPos += (size_t)N;
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true;
    if (N < 0 && errno == EINTR)
      continue;
    return false;
  }
  return true;
}

/// Reads what is available; returns 1 with \p Line set when a full line
/// arrived, 0 when more is needed, -1 on a closed or failed connection.
int readSome(Conn &C, std::string &Line) {
  char Buf[65536];
  for (;;) {
    size_t Nl = C.In.find('\n');
    if (Nl != std::string::npos) {
      Line.assign(C.In, 0, Nl);
      C.In.erase(0, Nl + 1);
      return 1;
    }
    ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
    if (N > 0) {
      C.In.append(Buf, (size_t)N);
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return 0;
    if (N < 0 && errno == EINTR)
      continue;
    return -1;
  }
}

/// One synchronous request on \p C (setup frames and stats).
bool rpc(Conn &C, const std::string &Frame, std::string &Answer) {
  C.Out = Frame + "\n";
  C.OutPos = 0;
  for (;;) {
    if (!writeSome(C))
      return false;
    pollfd P{C.Fd, (short)(C.OutPos < C.Out.size() ? POLLOUT : POLLIN), 0};
    if (C.OutPos >= C.Out.size())
      break;
    ::poll(&P, 1, 1000);
  }
  for (;;) {
    int R = readSome(C, Answer);
    if (R != 0)
      return R > 0;
    pollfd P{C.Fd, POLLIN, 0};
    ::poll(&P, 1, 1000);
  }
}

struct Sample {
  uint32_t Ns; ///< latency (a request never takes the 4.3 s that overflow)
  int Kernel;
};

struct Tally {
  uint64_t Attempted = 0, Failed = 0, Violations = 0, QueueFull = 0;
  uint64_t SentEval = 0, SentCompile = 0, QfullEval = 0, QfullCompile = 0;
  std::string FirstFailure;
};

class LoadLoop {
public:
  LoadLoop(std::vector<std::unique_ptr<Session>> &Ss, std::vector<Conn> &Cs)
      : Ss(Ss), Cs(Cs) {}

  /// Runs every session closed-loop until each sent \p PerConn frames
  /// (when > 0) or until \p Seconds passed; in-flight frames are always
  /// answered before returning. Measured phases record samples.
  bool run(int PerConn, double Seconds, bool Measure) {
    std::vector<int> Left(Cs.size(), PerConn);
    double Until = nowSeconds() + Seconds;
    auto MaySend = [&](size_t I) {
      return (PerConn > 0 ? Left[I] > 0 : nowSeconds() < Until) ||
             Ss[I]->followUpPending();
    };
    WindowSeen.clear();
    Sampled.clear();
    for (size_t I = 0; I < Cs.size(); ++I)
      if (MaySend(I) && !sendNext(I, Left[I]))
        return false;
    std::vector<pollfd> Ps(Cs.size());
    std::string Line;
    for (;;) {
      size_t Busy = 0;
      for (size_t I = 0; I < Cs.size(); ++I) {
        Ps[I] = {Cs[I].Fd, 0, 0};
        if (!Cs[I].Busy)
          continue;
        ++Busy;
        Ps[I].events = Cs[I].OutPos < Cs[I].Out.size() ? POLLOUT : POLLIN;
      }
      if (!Busy)
        break;
      if (::poll(Ps.data(), Ps.size(), Spin ? 0 : 5000) < 0 && errno != EINTR)
        return false;
      for (size_t I = 0; I < Cs.size(); ++I) {
        Conn &C = Cs[I];
        if (!C.Busy || !Ps[I].revents)
          continue;
        if (C.OutPos < C.Out.size()) {
          if (!writeSome(C))
            return fail("write failed");
          continue;
        }
        int R = readSome(C, Line);
        if (R < 0)
          return fail("connection closed by the daemon");
        if (R == 0)
          continue;
        uint64_t Lat = nowNs() - C.SentAt;
        C.Busy = false;
        Session &S = *Ss[I];
        const Expect &E = S.pending();
        Outcome O = S.check(Line);
        account(I, E, O, Lat, Measure);
        if (MaySend(I) && !sendNext(I, Left[I]))
          return false;
      }
    }
    return true;
  }

  Tally T;
  std::vector<Sample> Samples;
  /// The first SlowdownFrames evals of every session in the last run()
  /// and their round trips in us, for the slowdown.
  std::vector<std::pair<Expect, double>> Sampled;
  int SlowdownFrames = 40;
  /// Busy-poll the sockets instead of sleeping in poll(): when the
  /// client is pinned to a CPU of its own it then never adds a wake-up
  /// to a round trip.
  bool Spin = false;
  double BitsSum = 0;
  uint64_t BitsCount = 0;
  std::string Error;

private:
  std::vector<std::unique_ptr<Session>> &Ss;
  std::vector<Conn> &Cs;
  std::map<size_t, int> MeasuredPerConn, WindowSeen;

  /// Accuracy uses a fixed prefix of every session's measured frames, so
  /// it does not depend on timing.
  static constexpr int AccuracyFrames = 200;

  bool fail(const char *Why) {
    Error = Why;
    return false;
  }

  bool sendNext(size_t I, int &Left) {
    Session &S = *Ss[I];
    if (!S.prepare())
      return fail("session stalled");
    Conn &C = Cs[I];
    C.Out = S.send();
    C.Out += '\n';
    C.OutPos = 0;
    C.Busy = true;
    --Left;
    C.SentAt = nowNs();
    if (!writeSome(C))
      return fail("write failed");
    S.prepare(); // build the following frame while the daemon works
    return true;
  }

  void account(size_t I, const Expect &E, const Outcome &O, uint64_t LatNs,
               bool Measure) {
    bool IsEval = E.Kind == Expect::Op::Eval;
    (IsEval ? T.SentEval : T.SentCompile)++;
    if (O.QueueFull)
      (IsEval ? T.QfullEval : T.QfullCompile)++;
    if (O.Violation)
      ++T.Violations;
    if (!O.Ok && T.FirstFailure.empty())
      T.FirstFailure = O.Detail;
    if (!Measure) {
      if (!O.Ok)
        ++T.Failed; // setup failures surface as failed operations too
      return;
    }
    ++T.Attempted;
    if (!O.Ok) {
      ++T.Failed;
      if (O.QueueFull)
        ++T.QueueFull;
    }
    Samples.push_back(
        {(uint32_t)std::min<uint64_t>(LatNs, UINT32_MAX), E.Kernel});
    if (++MeasuredPerConn[I] <= AccuracyFrames)
      for (double B : O.Bits) {
        BitsSum += B;
        ++BitsCount;
      }
    if (O.Ok && IsEval && ++WindowSeen[I] <= SlowdownFrames)
      Sampled.push_back({E, (double)LatNs / 1000.0});
  }
};

/// Native time (us per call) of every sampled eval: the fastest of
/// three batches of calls, each batch at least 50 us long.
std::vector<double>
nativeUs(const Workload &W,
         const std::vector<std::pair<Expect, double>> &Sampled) {
  std::vector<double> Out;
  for (const auto &[E, Lat] : Sampled) {
    std::function<void()> Call = W.nativeCall(E);
    double Best = INFINITY;
    uint64_t N = 1;
    for (int Batch = 0; Batch < 3;) {
      uint64_t T0 = nowNs();
      for (uint64_t R = 0; R < N; ++R)
        Call();
      uint64_t Ns = nowNs() - T0;
      if (Ns < 50000) {
        N *= 2;
        continue;
      }
      Best = std::min(Best, (double)Ns / 1000.0 / (double)N);
      ++Batch;
    }
    Out.push_back(Best);
  }
  return Out;
}

} // namespace

int pb::runClient(const ClientOptions &Opt) {
  std::unique_ptr<Workload> W = makeServeWorkload(Opt.Workload, Opt.Seed);
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown serve workload '%s'\n",
                 Opt.Workload.c_str());
    return 2;
  }
  // Frames and oracle values first, so set-up time is the daemon's.
  std::vector<std::unique_ptr<Session>> Ss;
  for (int I = 0; I < W->connections(); ++I)
    Ss.push_back(W->session(I));
  // A client pinned to one CPU busy-polls its sockets and keeps the
  // other CPUs, the daemon's, from halting.
  cpu_set_t Cpus;
  bool Pinned = ::sched_getaffinity(0, sizeof(Cpus), &Cpus) == 0 &&
                CPU_COUNT(&Cpus) == 1;
  std::unique_ptr<IdleSpinners> Spinners;
  if (Pinned)
    Spinners = std::make_unique<IdleSpinners>(::sched_getcpu());
  std::printf("PREPARED\n");
  std::fflush(stdout);

  std::vector<Conn> Cs(W->connections());
  for (Conn &C : Cs)
    if ((C.Fd = connectTo(Opt.Socket, 30.0)) < 0) {
      std::fprintf(stderr, "perfbench: cannot connect to %s\n",
                   Opt.Socket.c_str());
      return 1;
    }
  auto Close = [&] {
    for (Conn &C : Cs)
      ::close(C.Fd);
  };

  // Set-up: the resident module, then a warm-up of every session.
  std::string Answer;
  std::vector<std::string> Setup = W->setupFrames();
  for (const std::string &F : Setup) {
    if (!rpc(Cs[0], F, Answer) || !ResponseScan(Answer).ok()) {
      std::fprintf(stderr, "perfbench: set-up frame failed: %.300s\n",
                   Answer.c_str());
      Close();
      return 1;
    }
    for (auto &Sess : Ss)
      Sess->bind(std::string(ResponseScan(Answer).field("handle")));
  }
  LoadLoop D(Ss, Cs);
  D.Spin = Pinned;
  auto WarmUp = [&](int PerConn) {
    if (D.run(PerConn, 0, /*Measure=*/false) && !D.T.Failed)
      return true;
    std::fprintf(stderr, "perfbench: warm-up failed: %s %s\n",
                 D.Error.c_str(), D.T.FirstFailure.c_str());
    Close();
    return false;
  };
  // The first frames of the warm-up set every daemon thread that serves
  // requests to work; the caller then places the daemon's threads
  // ("PLACE", answered by a line on stdin) before the rest of it.
  constexpr int PlaceFrames = 20;
  if (!WarmUp(PlaceFrames))
    return 1;
  std::printf("PLACE\n");
  std::fflush(stdout);
  char Placed[16];
  if (!std::fgets(Placed, sizeof(Placed), stdin)) {
    std::fprintf(stderr, "perfbench: no answer to PLACE on stdin\n");
    Close();
    return 1;
  }
  if (!WarmUp(W->warmupFrames()))
    return 1;
  std::printf("READY\n");
  std::fflush(stdout);

  std::string StatsPre, StatsPost;
  if (!rpc(Cs[0], "{\"op\":\"stats\"}", StatsPre)) {
    Close();
    return 1;
  }
  // Measured phase: one-second windows of load. After each window the
  // load pauses while native calls are timed. Resident kernels: the
  // evals sampled in the first window are timed natively again after
  // every window, each keeps its fastest native time, and a kernel's
  // slowdown is its median round trip over the run against the median
  // of its samples' native times (the inputs' costs differ, and the
  // round trip is a median over inputs too). compile-churn: every
  // generated function is its own kernel and their costs differ widely,
  // so each window samples 100 fresh evals and compares each with its
  // own round trip.
  std::vector<double> WindowRps, Ratios;
  double ActiveSeconds = 0;
  bool RanOk = true;
  bool PerRequest = Opt.Workload == "compile-churn";
  D.SlowdownFrames = PerRequest ? 50 : 40;
  std::vector<std::pair<Expect, double>> Fixed;
  std::vector<double> NatBest; // per sample of Fixed
  int NumWindows = std::max(1, (int)Opt.Seconds);
  double TotalUs = 0;
  for (int Win = 0; RanOk && Win < NumWindows; ++Win) {
    size_t First = D.Samples.size();
    uint64_t T0 = nowNs();
    RanOk = D.run(0, Opt.Seconds / NumWindows, /*Measure=*/true);
    double Active = (double)(nowNs() - T0) * 1e-9;
    ActiveSeconds += Active;
    for (size_t I = First; I < D.Samples.size(); ++I)
      TotalUs += D.Samples[I].Ns / 1000.0;
    WindowRps.push_back((double)(D.Samples.size() - First) / Active);

    if (Fixed.empty() || PerRequest) {
      Fixed = D.Sampled;
      NatBest.assign(Fixed.size(), INFINITY);
    }
    std::vector<double> Nat = nativeUs(*W, Fixed);
    for (size_t I = 0; I < Fixed.size(); ++I) {
      if (PerRequest)
        Ratios.push_back(Fixed[I].second / Nat[I]);
      else
        NatBest[I] = std::min(NatBest[I], Nat[I]);
    }
    // Deferred oracle checks, in the pause too, so their modules are not
    // all kept until the end of the run.
    for (auto &Sess : Ss) {
      uint64_t Misses = Sess->verifyDeferred(D.T.FirstFailure);
      D.T.Violations += Misses;
      D.T.Failed += Misses;
    }
  }
  if (!RanOk)
    std::fprintf(stderr, "perfbench: measurement aborted: %s\n",
                 D.Error.c_str());
  if (!PerRequest) {
    size_t NumKernels = W->kernels().size();
    std::vector<std::vector<uint32_t>> KernelLat(NumKernels);
    for (const Sample &S : D.Samples)
      KernelLat[S.Kernel].push_back(S.Ns);
    std::vector<std::vector<double>> KernelNat(NumKernels);
    for (size_t I = 0; I < Fixed.size(); ++I)
      KernelNat[Fixed[I].first.Kernel].push_back(NatBest[I]);
    for (size_t K = 0; K < NumKernels; ++K)
      if (!KernelLat[K].empty() && !KernelNat[K].empty())
        Ratios.push_back(quantile(KernelLat[K], 0.5) / 1000.0 /
                         quantile(KernelNat[K], 0.5));
  }
  bool StatsOk = rpc(Cs[0], "{\"op\":\"stats\"}", StatsPost);
  Close();
  if (!RanOk || !StatsOk)
    return 1;

  std::string J = "{";
  jsonNum(J, "attempted", (double)D.T.Attempted);
  jsonNum(J, "failed", (double)D.T.Failed);
  jsonNum(J, "violations", (double)D.T.Violations);
  jsonNum(J, "queue_full", (double)D.T.QueueFull);
  jsonNum(J, "sent_eval", (double)D.T.SentEval);
  jsonNum(J, "sent_compile", (double)D.T.SentCompile);
  jsonNum(J, "qfull_eval", (double)D.T.QfullEval);
  jsonNum(J, "qfull_compile", (double)D.T.QfullCompile);
  jsonNum(J, "setup_compile", (double)Setup.size());
  std::vector<uint32_t> Lat;
  for (const Sample &S : D.Samples)
    Lat.push_back(S.Ns);
  jsonNum(J, "samples", (double)Lat.size());
  jsonNum(J, "latency_p50_us", quantile(Lat, 0.50) / 1000.0);
  jsonNum(J, "latency_p99_us", quantile(Lat, 0.99) / 1000.0);
  jsonNum(J, "latency_mean_us",
          Lat.empty() ? 0 : TotalUs / (double)Lat.size());
  jsonNum(J, "throughput_rps", (double)Lat.size() / ActiveSeconds);
  // The spread of the one-second windows' rates, for the log only.
  jsonNum(J, "window_rps_min", quantile(WindowRps, 0.0));
  jsonNum(J, "window_rps_max", quantile(WindowRps, 1.0));
  jsonNum(J, "accuracy_bits_mean",
          D.BitsCount ? D.BitsSum / (double)D.BitsCount : 0.0);
  jsonNum(J, "slowdown_geomean", geomean(Ratios));
  J += ", \"first_failure\": \"";
  for (char C : D.T.FirstFailure.substr(0, 300))
    J += C == '"' || C == '\\' ? '\'' : C;
  J += "\", \"stats_pre\": " + StatsPre + ", \"stats_post\": " + StatsPost +
       "}\n";
  if (!writeFile(Opt.Out, J)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Opt.Out.c_str());
    return 1;
  }
  return 0;
}
