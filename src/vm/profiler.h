// Per-function execution profiling — where do a program's dynamic
// instructions go? Useful for sizing privilege epochs (a developer deciding
// where to move a priv_remove wants to know which functions dominate) and
// for validating that the program models spend their time where the paper's
// programs do.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "vm/interpreter.h"

namespace pa::vm {

class FunctionProfiler final : public Tracer {
 public:
  void on_run(const os::Process& p, const Stretch& s) override;

  struct Entry {
    std::string function;
    std::uint64_t instructions = 0;
    double fraction = 0.0;
  };

  /// Entries sorted by descending instruction count.
  std::vector<Entry> entries() const;
  std::uint64_t total() const { return total_; }

  std::string to_string() const;
  void reset();

 private:
  std::map<std::string, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  const ir::Function* last_fn_ = nullptr;
  std::uint64_t* last_slot_ = nullptr;
};

/// Combine several tracers into one (e.g. EpochTracker + FunctionProfiler
/// on the same run).
class MultiTracer final : public Tracer {
 public:
  explicit MultiTracer(std::vector<Tracer*> tracers)
      : tracers_(std::move(tracers)) {}

  void on_run(const os::Process& p, const Stretch& s) override {
    for (Tracer* t : tracers_) t->on_run(p, s);
  }

 private:
  std::vector<Tracer*> tracers_;
};

}  // namespace pa::vm
