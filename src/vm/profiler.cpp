#include "vm/profiler.h"

#include <algorithm>
#include <sstream>

#include "support/str.h"

namespace pa::vm {

void FunctionProfiler::on_run(const os::Process&, const Stretch& s) {
  total_ += s.n;
  if (s.fn != last_fn_ || !last_slot_) {
    last_fn_ = s.fn;
    last_slot_ = &counts_[s.fn->name()];
  }
  *last_slot_ += s.n;
}

std::vector<FunctionProfiler::Entry> FunctionProfiler::entries() const {
  std::vector<Entry> out;
  out.reserve(counts_.size());
  for (const auto& [name, count] : counts_) {
    Entry e;
    e.function = name;
    e.instructions = count;
    e.fraction = total_ == 0 ? 0.0
                             : static_cast<double>(count) /
                                   static_cast<double>(total_);
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    return a.instructions > b.instructions;
  });
  return out;
}

std::string FunctionProfiler::to_string() const {
  std::ostringstream os;
  os << "Function profile ("
     << str::with_commas(static_cast<long long>(total_)) << " instructions)\n";
  for (const Entry& e : entries())
    os << "  " << str::pad_right("@" + e.function, 24)
       << str::pad_left(str::percent(e.fraction), 8) << "  "
       << str::with_commas(static_cast<long long>(e.instructions)) << "\n";
  return os.str();
}

void FunctionProfiler::reset() {
  counts_.clear();
  total_ = 0;
  last_fn_ = nullptr;
  last_slot_ = nullptr;
}

}  // namespace pa::vm
