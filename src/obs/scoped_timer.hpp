// RAII wall-clock timer reporting into a catalogue histogram —
// the single host-side clock source feeding traces, metrics, and the
// bench harnesses (simulated GPU time comes from gpusim::TimingModel,
// never from this clock).  Observes elapsed host milliseconds exactly
// once, either at stop() (which also returns the value) or at
// destruction.
#pragma once

#include <chrono>

#include "obs/metrics.hpp"

namespace nmdt::obs {

class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist) : hist_(&hist) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() { stop(); }

  /// Elapsed host milliseconds since construction.
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(clock::now() - start_).count();
  }

  /// Record the elapsed milliseconds into the histogram (first call
  /// only) and return them.
  double stop() {
    const double ms = elapsed_ms();
    if (!stopped_) {
      stopped_ = true;
      hist_->observe(ms);
    }
    return ms;
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_ = clock::now();
  Histogram* hist_;
  bool stopped_ = false;
};

}  // namespace nmdt::obs
