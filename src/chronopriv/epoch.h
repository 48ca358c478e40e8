// ChronoPriv's dynamic measurement: how many instructions execute under each
// combination of (permitted privilege set, process credentials)?  Each such
// combination is a privilege *epoch* — one row of the paper's Table III.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "caps/credentials.h"
#include "caps/priv_state.h"
#include "vm/interpreter.h"

namespace pa::chronopriv {

/// The identity of an epoch: what an attacker could work with if the
/// program were exploited while this state is in force.
struct EpochKey {
  caps::CapSet permitted;
  caps::Credentials creds;

  bool operator==(const EpochKey&) const = default;
};

struct Epoch {
  EpochKey key;
  std::uint64_t instructions = 0;
  /// Order of first appearance during execution (Table III row order).
  int first_seen = 0;
};

/// One contiguous stretch of execution under a single privilege state —
/// the unaggregated view behind Table III's merged rows. `start` is the
/// index of the segment's first instruction in the run.
struct EpochSegment {
  EpochKey key;
  std::uint64_t start = 0;
  std::uint64_t length = 0;
};

/// Accumulates instruction counts per epoch as the VM runs. Rows with equal
/// keys are merged; order of first appearance is preserved.
class EpochTracker final : public vm::Tracer {
 public:
  void on_run(const os::Process& p, const vm::Stretch& s) override;

  /// Observed entry points into one epoch: (function, block) -> lowest
  /// instruction offset at which execution entered the block while the
  /// epoch was in force. A point is recorded wherever execution did not
  /// arrive straight-line: at a stretch's first instruction unless it
  /// directly follows the previous stretch's last one (function entry,
  /// return site, signal handler, epoch boundary), and at ip 0 of every
  /// block a stretch's branches entered. That is exactly the set that
  /// per-instruction tracking records. Every instruction executed in the
  /// epoch lies in the suffix of some recorded point, so the points are
  /// sound roots for static reachable-syscall closure
  /// (filters/epoch_filter.h).
  using PointMap = std::map<std::pair<std::string, int>, std::size_t>;

  /// Enable point capture (off by default: the extra bookkeeping is only
  /// needed when synthesizing per-epoch syscall filters).
  void set_record_points(bool on) { record_points_ = on; }
  /// Parallel to epochs(); empty maps unless point recording was on.
  const std::vector<PointMap>& epoch_points() const { return points_; }

  /// Invoked with the new epoch index whenever execution crosses into a
  /// different epoch row (including the very first stretch), at most once
  /// per stretch, before its last instruction's effects. Drives the
  /// kernel's per-epoch filter transition in enforcement mode.
  void set_epoch_change_hook(std::function<void(std::size_t)> hook) {
    on_epoch_change_ = std::move(hook);
  }

  /// Epochs in order of first appearance.
  const std::vector<Epoch>& epochs() const { return epochs_; }
  /// Contiguous privilege-state segments in execution order.
  const std::vector<EpochSegment>& timeline() const { return timeline_; }
  std::uint64_t total_instructions() const { return total_; }

  void reset();

 private:
  void record_point(const ir::Function& fn, int block, std::size_t ip);
  /// Records `s`'s points; `boundary` (an epoch change) records its start
  /// even when it follows the previous stretch directly.
  void record_points(const vm::Stretch& s, bool boundary);

  std::vector<Epoch> epochs_;
  std::vector<EpochSegment> timeline_;
  std::vector<PointMap> points_;
  std::uint64_t total_ = 0;
  // Cache of the current epoch to avoid a search per instruction.
  EpochKey current_key_;
  std::size_t current_index_ = SIZE_MAX;
  // Point capture (see PointMap): the previous stretch's last instruction.
  bool record_points_ = false;
  const ir::Function* last_fn_ = nullptr;
  int last_block_ = -1;
  std::size_t last_ip_ = SIZE_MAX;
  std::function<void(std::size_t)> on_epoch_change_;
};

}  // namespace pa::chronopriv
