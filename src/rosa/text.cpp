#include "rosa/text.h"

#include <charconv>
#include <sstream>
#include <system_error>

#include "rosa/query.h"
#include "support/error.h"
#include "support/str.h"

namespace pa::rosa {
namespace {

/// Tokenize a line into words, treating quoted strings and parenthesized
/// argument lists carefully enough for this line-oriented grammar.
class LineScanner {
 public:
  LineScanner(std::string_view line, int line_no)
      : line_(line), line_no_(line_no) {}

  [[noreturn]] void err(const std::string& m) const {
    fail(str::cat("query parse error at line ", line_no_, ": ", m, " in `",
                  line_, "`"));
  }

  void skip_ws() {
    while (pos_ < line_.size() &&
           std::isspace(static_cast<unsigned char>(line_[pos_])))
      ++pos_;
  }

  bool at_end() {
    skip_ws();
    return pos_ >= line_.size();
  }

  char peek() {
    skip_ws();
    return pos_ < line_.size() ? line_[pos_] : '\0';
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < line_.size() && line_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string word() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < line_.size() &&
           (std::isalnum(static_cast<unsigned char>(line_[pos_])) ||
            line_[pos_] == '_'))
      ++pos_;
    if (pos_ == start) err("expected word");
    return std::string(line_.substr(start, pos_ - start));
  }

  /// Like word() but also accepts '-' — used for symbolic permission
  /// strings such as "rw-r-----". Stops at the first whitespace.
  std::string perm_token() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < line_.size() &&
           (std::isalnum(static_cast<unsigned char>(line_[pos_])) ||
            line_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) err("expected permissions");
    return std::string(line_.substr(start, pos_ - start));
  }

  /// An optional '-', then decimal digits, or octal digits after a leading
  /// 0 ("010" is 8; "09" is an error, not 0). Every digit must be consumed
  /// and the value must fit an int.
  int integer() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < line_.size() && line_[pos_] == '-') ++pos_;
    const std::size_t digits = pos_;
    while (pos_ < line_.size() &&
           std::isdigit(static_cast<unsigned char>(line_[pos_])))
      ++pos_;
    if (pos_ == digits) err("expected integer");
    const int base = pos_ - digits > 1 && line_[digits] == '0' ? 8 : 10;
    const char* last = line_.data() + pos_;
    int value = 0;
    const auto [end, ec] =
        std::from_chars(line_.data() + start, last, value, base);
    if (end != last && ec == std::errc{})
      err(str::cat("invalid digit '", *end, "' in octal integer"));
    if (ec != std::errc{}) err("integer out of range");
    return value;
  }

  std::string quoted() {
    if (!consume('"')) err("expected string");
    std::size_t start = pos_;
    while (pos_ < line_.size() && line_[pos_] != '"') ++pos_;
    if (pos_ >= line_.size()) err("unterminated string");
    std::string out(line_.substr(start, pos_ - start));
    ++pos_;
    return out;
  }

 private:
  std::string_view line_;
  std::size_t pos_ = 0;
  int line_no_;
};

os::Mode parse_perms(LineScanner& sc) {
  // perms is either a 9-char symbolic string or an octal literal.
  std::string tok = sc.perm_token();
  auto mode = os::Mode::parse(tok);
  if (!mode) sc.err(str::cat("bad perms '", tok, "'"));
  return *mode;
}

/// Message argument: integer, '*' wildcard, octal mode, or access-mode word
/// (r / w / rw).
int parse_msg_arg(LineScanner& sc) {
  if (sc.consume('*')) return kWild;
  char c = sc.peek();
  if (c == 'r' || c == 'w') {
    std::string w = sc.word();
    if (w == "r") return kAccRead;
    if (w == "w") return kAccWrite;
    if (w == "rw") return kAccRead | kAccWrite;
    sc.err(str::cat("bad access mode '", w, "'"));
  }
  return sc.integer();
}

caps::CapSet parse_privs(LineScanner& sc) {
  if (!sc.consume('{')) sc.err("expected '{' privilege set");
  std::string names;
  while (sc.peek() != '}' && sc.peek() != '\0') {
    if (sc.consume(',')) {
      names += ',';
      continue;
    }
    names += sc.word();
  }
  if (!sc.consume('}')) sc.err("expected '}'");
  auto set = caps::CapSet::parse(names);
  if (!set) sc.err(str::cat("bad privilege set {", names, "}"));
  return *set;
}

}  // namespace

Query parse_query(std::string_view text) {
  Query q;
  int line_no = 0;
  bool have_goal = false;

  for (std::string& raw : str::split(text, '\n', /*keep_empty=*/true)) {
    ++line_no;
    if (auto pos = raw.find('#'); pos != std::string::npos) raw.resize(pos);
    std::string_view line = str::trim(raw);
    if (line.empty()) continue;

    LineScanner sc(line, line_no);
    std::string kind = sc.word();

    if (kind == "process") {
      ProcObj p;
      p.id = sc.integer();
      while (!sc.at_end()) {
        std::string attr = sc.word();
        if (attr == "uid") {
          p.uid.real = sc.integer();
          p.uid.effective = sc.integer();
          p.uid.saved = sc.integer();
        } else if (attr == "gid") {
          p.gid.real = sc.integer();
          p.gid.effective = sc.integer();
          p.gid.saved = sc.integer();
        } else if (attr == "groups") {
          while (!sc.at_end() && std::isdigit(static_cast<unsigned char>(sc.peek())))
            p.supplementary.push_back(sc.integer());
        } else {
          sc.err(str::cat("unknown process attribute '", attr, "'"));
        }
      }
      q.initial.procs.push_back(std::move(p));
    } else if (kind == "file" || kind == "dir") {
      int id = sc.integer();
      std::string name = sc.quoted();
      os::FileMeta meta;
      int inode = -1;
      while (!sc.at_end()) {
        std::string attr = sc.word();
        if (attr == "perms") meta.mode = parse_perms(sc);
        else if (attr == "owner") meta.owner = sc.integer();
        else if (attr == "group") meta.group = sc.integer();
        else if (attr == "inode" && kind == "dir") inode = sc.integer();
        else sc.err(str::cat("unknown attribute '", attr, "'"));
      }
      if (kind == "file")
        q.initial.files.push_back(FileObj{id, meta});
      else
        q.initial.dirs.push_back(DirObj{id, meta, inode});
      q.initial.set_name(id, std::move(name));
    } else if (kind == "socket") {
      SockObj s;
      s.id = sc.integer();
      while (!sc.at_end()) {
        std::string attr = sc.word();
        if (attr == "owner") s.owner_proc = sc.integer();
        else if (attr == "port") s.port = sc.integer();
        else sc.err(str::cat("unknown socket attribute '", attr, "'"));
      }
      q.initial.socks.push_back(s);
    } else if (kind == "user") {
      q.initial.add_user(sc.integer());
    } else if (kind == "group") {
      q.initial.add_group(sc.integer());
    } else if (kind == "msg") {
      std::string name = sc.word();
      auto sys = parse_sys(name);
      if (!sys) sc.err(str::cat("unknown syscall '", name, "'"));
      if (!sc.consume('(')) sc.err("expected '('");
      Message m;
      m.sys = *sys;
      m.proc = sc.integer();
      while (sc.consume(',')) {
        if (sc.peek() == '{') {
          m.privs = parse_privs(sc);
          break;
        }
        m.args.push_back(parse_msg_arg(sc));
      }
      if (!sc.consume(')')) sc.err("expected ')'");
      q.messages.push_back(std::move(m));
    } else if (kind == "attacker") {
      std::string model = sc.word();
      while (sc.consume('-')) model += "-" + sc.word();
      if (model == "full") q.attacker = AttackerModel::Full;
      else if (model == "cfi-ordered") q.attacker = AttackerModel::CfiOrdered;
      else if (model == "fixed-args") q.attacker = AttackerModel::FixedArgs;
      else sc.err(str::cat("unknown attacker model '", model, "'"));
    } else if (kind == "goal") {
      std::string g = sc.word();
      if (g == "rdfset" || g == "wrfset") {
        int proc = sc.integer();
        std::string contains = sc.word();
        if (contains != "contains") sc.err("expected 'contains'");
        int file = sc.integer();
        q.goal = g == "rdfset" ? goal_file_in_rdfset(proc, file)
                               : goal_file_in_wrfset(proc, file);
        q.description = str::cat(g, " ", proc, " contains ", file);
      } else if (g == "privport") {
        int proc = sc.integer();
        q.goal = goal_privileged_port_bound(proc);
        q.description = str::cat("privport ", proc);
      } else if (g == "terminated") {
        int proc = sc.integer();
        q.goal = goal_proc_terminated(proc);
        q.description = str::cat("terminated ", proc);
      } else {
        sc.err(str::cat("unknown goal '", g, "'"));
      }
      have_goal = true;
    } else {
      sc.err(str::cat("unknown declaration '", kind, "'"));
    }
  }
  if (!have_goal) fail("query parse error: no goal declared");
  q.initial.normalize();
  return q;
}

std::optional<Query> try_parse_query(std::string_view text,
                                     std::string* error) {
  try {
    return parse_query(text);
  } catch (const Error& e) {
    if (error) *error = e.what();
    return std::nullopt;
  }
}

std::string print_query(const Query& q) {
  std::ostringstream os;
  os << "search in UNIX :\n" << q.initial.to_string();
  for (const Message& m : q.messages) os << m.to_string() << "\n";
  os << "=>* " << (q.description.empty() ? "<goal>" : q.description) << "\n";
  return os.str();
}

}  // namespace pa::rosa
