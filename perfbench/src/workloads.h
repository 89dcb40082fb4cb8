//===- workloads.h - Serve workloads: frames and expected outcomes -*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three daemon workloads. A workload is a set of sessions, one per
/// client connection; a session is a deterministic stream of request
/// frames (a function of the seed and the connection index only), each
/// paired with what a correct daemon must answer. The load client sends
/// the frames over the socket; the traced replay feeds the very same
/// frames to an in-process ServerCore.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "common.h"
#include "modgen.h"

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace pb {

/// What a correct answer to one frame looks like.
struct Expect {
  enum class Op { Eval, Compile };
  Op Kind = Op::Eval;
  int Kernel = 0;              ///< workload-specific kernel index
  std::string ErrCode, ErrStage; ///< expected typed error ("" = ok)
  std::vector<quad> Values;    ///< oracle values, in response order
  std::vector<Box> Args; ///< scalar/array argument boxes, in order
  /// compile-churn: the module whose compile this is, or whose last
  /// function this eval runs. Its binary128 oracle is costly, so the
  /// eval is checked after the measured phase (verifyDeferred).
  std::shared_ptr<const GenModule> Module;
  bool Deferred = false;
};

/// The verdict on one response.
struct Outcome {
  bool Ok = false;        ///< the answer is the expected one
  bool Violation = false; ///< an interval misses its oracle value
  bool QueueFull = false; ///< refused by admission control
  std::string Detail;     ///< why it is not Ok
  std::vector<double> Bits; ///< accuracy of every returned interval
};

class Session {
public:
  virtual ~Session() = default;

  /// Makes the next frame ready, if it does not depend on the answer
  /// still outstanding. Returns true when a frame is ready.
  bool prepare() {
    if (HasNext)
      return true;
    Expect E;
    if (!build(Next, E))
      return false;
    NextExpect = std::move(E);
    HasNext = true;
    return true;
  }
  /// Marks the prepared frame as sent and returns it.
  const std::string &send() {
    Pending = std::move(NextExpect);
    HasNext = false;
    Sent.swap(Next);
    return Sent;
  }
  /// Judges the answer to the frame last sent.
  Outcome check(std::string_view Resp);
  const Expect &pending() const { return Pending; }
  /// Gives the session the handle of the workload's resident module.
  virtual void bind(const std::string &) {}
  /// True when the next frame completes a transaction the last answer
  /// opened (compile-churn's eval of what it just compiled); a phase
  /// boundary does not split the two, or the other connections' inserts
  /// could evict the program in between.
  virtual bool followUpPending() const { return false; }
  /// Checks the deferred answers against their oracle; returns how many
  /// miss it (the first is described in \p FirstFailure).
  uint64_t verifyDeferred(std::string &FirstFailure);

protected:
  /// Builds the next frame; false when it needs the outstanding answer.
  virtual bool build(std::string &Frame, Expect &E) = 0;
  /// Hook run on every answer with the verdict (compile-churn learns
  /// handles from it).
  virtual void onAnswer(const Expect &, const ResponseScan &, bool) {}

private:
  std::string Next, Sent;
  Expect NextExpect, Pending;
  bool HasNext = false;
  struct DeferredCheck {
    Expect E;
    double Lo, Hi;
  };
  std::vector<DeferredCheck> Deferred;
};

class Workload {
public:
  virtual ~Workload() = default;
  int connections() const { return Connections; }
  /// Frames sent once on connection 0 before any session starts (the
  /// resident module); the handle its answer carries is bound to every
  /// session.
  virtual std::vector<std::string> setupFrames() const { return {}; }
  /// Session of connection \p Conn; sessions of one seed always produce
  /// the same frames. Building one may take a while (frames and oracles
  /// are computed up front), so do it before timing starts.
  virtual std::unique_ptr<Session> session(int Conn) const = 0;
  /// Frames per connection sent before timing starts.
  int warmupFrames() const { return Warmup; }
  /// Kernel names, indexed by Expect::Kernel.
  const std::vector<std::string> &kernels() const { return Kernels; }
  /// A native double call of the reference implementation of the eval
  /// behind \p E.
  virtual std::function<void()> nativeCall(const Expect &E) const = 0;

protected:
  int Connections = 2;
  int Warmup = 50;
  std::vector<std::string> Kernels;
};

/// eval-array, eval-scalar or compile-churn; nullptr for other names.
std::unique_ptr<Workload> makeServeWorkload(const std::string &Name,
                                            uint64_t Seed);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
