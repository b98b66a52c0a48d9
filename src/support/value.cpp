#include "support/value.hpp"

#include <charconv>
#include <sstream>

namespace parulel {

std::string Value::to_string(const SymbolTable& symbols) const {
  std::string out;
  append_to(out, symbols);
  return out;
}

void Value::append_to(std::string& out, const SymbolTable& symbols) const {
  switch (kind_) {
    case ValueKind::Int: {
      char buf[24];
      const auto end = std::to_chars(buf, buf + sizeof buf, i_).ptr;
      out.append(buf, end);
      return;
    }
    case ValueKind::Float: {
      std::ostringstream os;
      os << f_;
      out += os.str();
      return;
    }
    case ValueKind::Sym:
      out += symbols.name(s_);
      return;
  }
}

}  // namespace parulel
