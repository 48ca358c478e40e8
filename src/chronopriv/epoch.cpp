#include "chronopriv/epoch.h"

namespace pa::chronopriv {

void EpochTracker::record_point(const ir::Function& fn, int block,
                                std::size_t ip) {
  if (block < 0) return;
  PointMap& points = points_[current_index_];
  auto [it, inserted] = points.try_emplace({fn.name(), block}, ip);
  if (!inserted && ip < it->second) it->second = ip;
}

void EpochTracker::on_run(const os::Process& p, const ir::Function& fn,
                          int block, std::size_t ip, std::uint64_t n) {
  total_ += n;
  // Fast path: privilege state unchanged since the previous run.
  // ChronoPriv records the permitted set and the real/effective/saved
  // uid/gid triples; supplementary groups are not part of the epoch key
  // (they are not among the credentials the paper's Table III reports).
  if (current_index_ != SIZE_MAX &&
      p.privs.permitted() == current_key_.permitted &&
      p.creds.uid == current_key_.creds.uid &&
      p.creds.gid == current_key_.creds.gid) {
    epochs_[current_index_].instructions += n;
    timeline_.back().length += n;
    if (record_points_) {
      // Record every non-straight-line transfer: function entries, branch
      // targets, and return sites all start a fresh suffix of execution
      // whose syscalls must be in this epoch's filter. Block -1 (no point
      // info) records nothing.
      const bool sequential =
          &fn == last_fn_ && block == last_block_ && ip == last_ip_ + 1;
      if (!sequential) record_point(fn, block, ip);
      last_fn_ = &fn;
      last_block_ = block;
      last_ip_ = ip + (n - 1);
    }
    return;
  }

  EpochKey key{p.privs.permitted(),
               caps::Credentials{p.creds.uid, p.creds.gid, {}}};
  timeline_.push_back(EpochSegment{key, total_ - n, n});
  current_index_ = SIZE_MAX;
  for (std::size_t i = 0; i < epochs_.size(); ++i) {
    if (epochs_[i].key == key) {
      epochs_[i].instructions += n;
      current_index_ = i;
      break;
    }
  }
  if (current_index_ == SIZE_MAX) {
    epochs_.push_back(Epoch{key, n, static_cast<int>(epochs_.size())});
    points_.emplace_back();
    current_index_ = epochs_.size() - 1;
  }
  current_key_ = std::move(key);
  if (record_points_) {
    // An epoch boundary always starts a fresh suffix.
    record_point(fn, block, ip);
    last_fn_ = &fn;
    last_block_ = block;
    last_ip_ = ip + (n - 1);
  }
  if (on_epoch_change_) on_epoch_change_(current_index_);
}

void EpochTracker::reset() {
  epochs_.clear();
  timeline_.clear();
  points_.clear();
  total_ = 0;
  current_index_ = SIZE_MAX;
  last_fn_ = nullptr;
  last_block_ = -1;
  last_ip_ = SIZE_MAX;
}

}  // namespace pa::chronopriv
