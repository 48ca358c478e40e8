#include "privc/lexer.h"

#include <cctype>
#include <charconv>
#include <map>

#include "caps/capability.h"
#include "support/error.h"
#include "support/str.h"

namespace pa::privc {
namespace {

const std::map<std::string, Tok, std::less<>>& keywords() {
  static const std::map<std::string, Tok, std::less<>> kw = {
      {"fn", Tok::KwFn},           {"var", Tok::KwVar},
      {"if", Tok::KwIf},           {"else", Tok::KwElse},
      {"while", Tok::KwWhile},     {"return", Tok::KwReturn},
      {"exit", Tok::KwExit},       {"with_priv", Tok::KwWithPriv},
      {"priv_raise", Tok::KwPrivRaise},
      {"priv_lower", Tok::KwPrivLower},
      {"priv_remove", Tok::KwPrivRemove},
      {"funcref", Tok::KwFuncref},
  };
  return kw;
}

}  // namespace

std::string_view tok_name(Tok t) {
  switch (t) {
    case Tok::Ident: return "identifier";
    case Tok::Number: return "number";
    case Tok::String: return "string";
    case Tok::CapName: return "capability";
    case Tok::KwFn: return "'fn'";
    case Tok::KwVar: return "'var'";
    case Tok::KwIf: return "'if'";
    case Tok::KwElse: return "'else'";
    case Tok::KwWhile: return "'while'";
    case Tok::KwReturn: return "'return'";
    case Tok::KwExit: return "'exit'";
    case Tok::KwWithPriv: return "'with_priv'";
    case Tok::KwPrivRaise: return "'priv_raise'";
    case Tok::KwPrivLower: return "'priv_lower'";
    case Tok::KwPrivRemove: return "'priv_remove'";
    case Tok::KwFuncref: return "'funcref'";
    case Tok::LParen: return "'('";
    case Tok::RParen: return "')'";
    case Tok::LBrace: return "'{'";
    case Tok::RBrace: return "'}'";
    case Tok::Comma: return "','";
    case Tok::Semi: return "';'";
    case Tok::Assign: return "'='";
    case Tok::Plus: return "'+'";
    case Tok::Minus: return "'-'";
    case Tok::Star: return "'*'";
    case Tok::Slash: return "'/'";
    case Tok::EqEq: return "'=='";
    case Tok::NotEq: return "'!='";
    case Tok::Lt: return "'<'";
    case Tok::Le: return "'<='";
    case Tok::Gt: return "'>'";
    case Tok::Ge: return "'>='";
    case Tok::AndAnd: return "'&&'";
    case Tok::OrOr: return "'||'";
    case Tok::Not: return "'!'";
    case Tok::Eof: return "end of input";
  }
  return "?";
}

std::vector<Token> lex(std::string_view src) {
  std::vector<Token> out;
  int line = 1;
  std::size_t i = 0;

  auto push = [&](Tok kind, std::string text = {}, std::int64_t num = 0) {
    out.push_back(Token{kind, std::move(text), num, line});
  };
  auto err = [&](const std::string& m) {
    fail(str::cat("PrivC lex error at line ", line, ": ", m));
  };

  while (i < src.size()) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      while (i < src.size() && src[i] != '\n') ++i;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = i;
      // Octal with a leading 0 (mode literals), else decimal.
      while (i < src.size() && std::isdigit(static_cast<unsigned char>(src[i])))
        ++i;
      const std::string_view digits = src.substr(start, i - start);
      const int base = digits.size() > 1 && digits[0] == '0' ? 8 : 10;
      std::int64_t value = 0;
      const char* last = digits.data() + digits.size();
      const auto [end, ec] =
          std::from_chars(digits.data(), last, value, base);
      if (end != last && ec == std::errc{})
        err(str::cat("invalid digit '", *end, "' in octal literal"));
      if (ec != std::errc{}) err("integer literal out of range");
      push(Tok::Number, std::string(digits), value);
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = i;
      while (i < src.size() &&
             (std::isalnum(static_cast<unsigned char>(src[i])) ||
              src[i] == '_'))
        ++i;
      std::string word(src.substr(start, i - start));
      auto kw = keywords().find(word);
      if (kw != keywords().end()) {
        push(kw->second, word);
      } else if (caps::parse_capability(word).has_value()) {
        push(Tok::CapName, word);
      } else {
        push(Tok::Ident, word);
      }
      continue;
    }
    if (c == '"') {
      ++i;
      std::string body;
      while (i < src.size() && src[i] != '"') {
        if (src[i] == '\n') err("unterminated string");
        if (src[i] == '\\' && i + 1 < src.size()) {
          ++i;
          switch (src[i]) {
            case 'n': body += '\n'; break;
            case 't': body += '\t'; break;
            case '"': body += '"'; break;
            case '\\': body += '\\'; break;
            default: err("bad escape");
          }
          ++i;
          continue;
        }
        body += src[i++];
      }
      if (i >= src.size()) err("unterminated string");
      ++i;
      push(Tok::String, std::move(body));
      continue;
    }
    auto two = [&](char a, char b) {
      return c == a && i + 1 < src.size() && src[i + 1] == b;
    };
    if (two('=', '=')) { push(Tok::EqEq); i += 2; continue; }
    if (two('!', '=')) { push(Tok::NotEq); i += 2; continue; }
    if (two('<', '=')) { push(Tok::Le); i += 2; continue; }
    if (two('>', '=')) { push(Tok::Ge); i += 2; continue; }
    if (two('&', '&')) { push(Tok::AndAnd); i += 2; continue; }
    if (two('|', '|')) { push(Tok::OrOr); i += 2; continue; }
    switch (c) {
      case '(': push(Tok::LParen); break;
      case ')': push(Tok::RParen); break;
      case '{': push(Tok::LBrace); break;
      case '}': push(Tok::RBrace); break;
      case ',': push(Tok::Comma); break;
      case ';': push(Tok::Semi); break;
      case '=': push(Tok::Assign); break;
      case '+': push(Tok::Plus); break;
      case '-': push(Tok::Minus); break;
      case '*': push(Tok::Star); break;
      case '/': push(Tok::Slash); break;
      case '<': push(Tok::Lt); break;
      case '>': push(Tok::Gt); break;
      case '!': push(Tok::Not); break;
      default:
        err(str::cat("unexpected character '", std::string(1, c), "'"));
    }
    ++i;
  }
  push(Tok::Eof);
  return out;
}

}  // namespace pa::privc
