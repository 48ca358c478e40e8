#include "rosa/query.h"

#include "os/access.h"
#include "support/str.h"

namespace pa::rosa {

bool Goal::operator()(const State& st) const {
  switch (kind) {
    case Kind::Rdfset: {
      const ProcObj* p = st.find_proc(proc);
      return p && p->rdfset.contains(file);
    }
    case Kind::Wrfset: {
      const ProcObj* p = st.find_proc(proc);
      return p && p->wrfset.contains(file);
    }
    case Kind::PrivPort:
      for (const SockObj& s : st.socks)
        if (s.owner_proc == proc && s.port != -1 &&
            s.port <= os::kPrivilegedPortMax)
          return true;
      return false;
    case Kind::Terminated: {
      const ProcObj* p = st.find_proc(proc);
      return p && !p->running;
    }
    case Kind::None: break;
  }
  return false;
}

std::string Goal::cache_key() const {
  switch (kind) {
    case Kind::Rdfset: return str::cat("rdfset:", proc, ":", file);
    case Kind::Wrfset: return str::cat("wrfset:", proc, ":", file);
    case Kind::PrivPort: return str::cat("privport:", proc);
    case Kind::Terminated: return str::cat("terminated:", proc);
    case Kind::None: break;
  }
  return {};
}

SysSet Goal::enabling() const {
  switch (kind) {
    case Kind::Rdfset:
    case Kind::Wrfset: return sys_bit(Sys::Open);
    case Kind::PrivPort: return sys_bit(Sys::Bind);
    case Kind::Terminated: return sys_bit(Sys::Kill);
    case Kind::None: break;
  }
  return 0;
}

}  // namespace pa::rosa
