// Opt-in, in-process on-CPU sampling profiler (docs/OBSERVABILITY.md
// "Tracing" -> profiler workflow). Default off; armed at startup via
// `vsim serve --profile-hz N` or at runtime through the kStats profile
// sub-request (`vsim stats --profile-seconds N`), so a production
// server can answer "*why* is this stage slow" without an external
// profiler attached.
//
// Mechanism: ITIMER_PROF delivers SIGPROF at the requested rate while
// the process consumes CPU; the handler captures a backtrace() into a
// fixed lock-free sample ring (per-slot seqlock claim, same discipline
// as SpanRing) and returns. Symbolization
// (backtrace_symbols) and collapsing happen only at collect time, off
// the signal path. backtrace() is pre-warmed at Arm() because its
// first call may lazily load libgcc, which is not async-signal-safe.
//
// Output is collapsed-stack text, one "frame;frame;... count" line per
// unique stack -- directly consumable by flamegraph.pl or speedscope.
//
// The profiler is process-global (signal disposition and ITIMER_PROF
// are process-wide resources); Arm/Disarm are serialized by a mutex,
// the sampling hot path is lock- and allocation-free.
#ifndef VSIM_OBS_PROFILER_H_
#define VSIM_OBS_PROFILER_H_

#include <signal.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "vsim/common/thread_annotations.h"

namespace vsim::obs {

class Profiler {
 public:
  static constexpr size_t kMaxFrames = 48;
  static constexpr size_t kRingCapacity = 4096;

  // The process-wide instance (SIGPROF has a single disposition).
  static Profiler& Instance();

  // Starts sampling at `hz` (clamped to [1, 1000]). Re-arming while
  // armed restarts at the new rate and clears prior samples. Returns
  // false if the timer or handler could not be installed.
  bool Arm(int hz);
  // Stops the timer and restores the previous SIGPROF disposition.
  // Captured samples remain available to CollapsedStacks().
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  // Renders every captured sample as collapsed-stack lines
  // ("a;b;c 12\n"), innermost frame last per flamegraph convention.
  // Allocates and symbolizes; never call from the signal path.
  std::string CollapsedStacks() const;

  uint64_t samples() const { return samples_.load(std::memory_order_relaxed); }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  struct Sample {
    std::atomic<uint64_t> seq{0};  // odd while the handler owns the slot
    std::atomic<uint32_t> depth{0};
    std::array<std::atomic<uintptr_t>, kMaxFrames> pcs{};
  };

  Profiler() = default;

  static void HandleSignal(int signum);
  void CaptureSample();

  Mutex arm_mu_;  // serializes Arm/Disarm only
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> tickets_{0};
  std::atomic<uint64_t> samples_{0};
  std::atomic<uint64_t> dropped_{0};
  std::array<Sample, kRingCapacity> ring_{};
  bool handler_installed_ GUARDED_BY(arm_mu_) = false;
  struct sigaction previous_action_ GUARDED_BY(arm_mu_) {};
};

}  // namespace vsim::obs

#endif  // VSIM_OBS_PROFILER_H_
