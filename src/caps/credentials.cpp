#include "caps/credentials.h"

#include <algorithm>

#include "support/str.h"

namespace pa::caps {

std::string IdTriple::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void IdTriple::append_to(std::string& out) const {
  str::append(out, real, ',', effective, ',', saved);
}

bool Credentials::in_group(Gid g) const {
  if (g == gid.effective) return true;
  return std::binary_search(supplementary.begin(), supplementary.end(), g);
}

void Credentials::set_supplementary(std::vector<Gid> groups) {
  std::sort(groups.begin(), groups.end());
  groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
  supplementary = std::move(groups);
}

std::string Credentials::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void Credentials::append_to(std::string& out) const {
  out += "uid=";
  uid.append_to(out);
  out += " gid=";
  gid.append_to(out);
  if (!supplementary.empty()) {
    out += " groups=";
    for (std::size_t i = 0; i < supplementary.size(); ++i) {
      if (i) out += ',';
      str::append(out, supplementary[i]);
    }
  }
}

CredChange apply_setuid(IdTriple& t, int id, bool privileged) {
  if (id < 0) return CredChange::Einval;
  if (privileged) {
    t = IdTriple{id, id, id};
    return CredChange::Ok;
  }
  if (id == t.real || id == t.saved) {
    t.effective = id;
    return CredChange::Ok;
  }
  return CredChange::Eperm;
}

CredChange apply_seteuid(IdTriple& t, int id, bool privileged) {
  if (id < 0) return CredChange::Einval;
  if (privileged || id == t.real || id == t.saved) {
    t.effective = id;
    return CredChange::Ok;
  }
  return CredChange::Eperm;
}

CredChange apply_setresuid(IdTriple& t, int r, int e, int s, bool privileged) {
  auto pick = [](int requested, int current) {
    return requested == -1 ? current : requested;
  };
  const int nr = pick(r, t.real);
  const int ne = pick(e, t.effective);
  const int ns = pick(s, t.saved);
  if (nr < 0 || ne < 0 || ns < 0) return CredChange::Einval;
  if (!privileged) {
    auto allowed = [&](int id) { return t.matches(id); };
    if (!allowed(nr) || !allowed(ne) || !allowed(ns)) return CredChange::Eperm;
  }
  t = IdTriple{nr, ne, ns};
  return CredChange::Ok;
}

CredChange apply_setgroups(Credentials& c, std::vector<Gid> groups,
                           bool privileged) {
  if (!privileged) return CredChange::Eperm;
  for (Gid g : groups)
    if (g < 0) return CredChange::Einval;
  c.set_supplementary(std::move(groups));
  return CredChange::Ok;
}

}  // namespace pa::caps
