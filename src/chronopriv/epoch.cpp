#include "chronopriv/epoch.h"

namespace pa::chronopriv {

void EpochTracker::record_point(const ir::Function& fn, int block,
                                std::size_t ip) {
  if (block < 0) return;
  PointMap& points = points_[current_index_];
  auto [it, inserted] = points.try_emplace({fn.name(), block}, ip);
  if (!inserted && ip < it->second) it->second = ip;
}

void EpochTracker::record_points(const vm::Stretch& s, bool boundary) {
  const bool sequential = !boundary && s.fn == last_fn_ &&
                          s.block == last_block_ && s.ip == last_ip_ + 1;
  if (!sequential) record_point(*s.fn, s.block, s.ip);
  for (const int b : s.entered) record_point(*s.fn, b, 0);
  last_fn_ = s.fn;
  last_block_ = s.last_block;
  last_ip_ = s.last_ip;
}

void EpochTracker::on_run(const os::Process& p, const vm::Stretch& s) {
  total_ += s.n;
  // Fast path: privilege state unchanged since the previous stretch.
  // ChronoPriv records the permitted set and the real/effective/saved
  // uid/gid triples; supplementary groups are not part of the epoch key
  // (they are not among the credentials the paper's Table III reports).
  if (current_index_ != SIZE_MAX &&
      p.privs.permitted() == current_key_.permitted &&
      p.creds.uid == current_key_.creds.uid &&
      p.creds.gid == current_key_.creds.gid) {
    epochs_[current_index_].instructions += s.n;
    timeline_.back().length += s.n;
    if (record_points_) record_points(s, /*boundary=*/false);
    return;
  }

  EpochKey key{p.privs.permitted(),
               caps::Credentials{p.creds.uid, p.creds.gid, {}}};
  timeline_.push_back(EpochSegment{key, total_ - s.n, s.n});
  current_index_ = SIZE_MAX;
  for (std::size_t i = 0; i < epochs_.size(); ++i) {
    if (epochs_[i].key == key) {
      epochs_[i].instructions += s.n;
      current_index_ = i;
      break;
    }
  }
  if (current_index_ == SIZE_MAX) {
    epochs_.push_back(Epoch{key, s.n, static_cast<int>(epochs_.size())});
    points_.emplace_back();
    current_index_ = epochs_.size() - 1;
  }
  current_key_ = std::move(key);
  // An epoch boundary always starts a fresh suffix.
  if (record_points_) record_points(s, /*boundary=*/true);
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
