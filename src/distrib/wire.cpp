#include "distrib/wire.hpp"

#include <charconv>

#include "service/journal.hpp"
#include "support/error.hpp"

namespace parulel {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string to_hex(std::string_view bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kHexDigits[c >> 4]);
    out.push_back(kHexDigits[c & 0xF]);
  }
  return out;
}

std::string from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw RuntimeError("cluster wire hex token has odd length");
  }
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_nibble(hex[i]);
    const int lo = hex_nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      throw RuntimeError("cluster wire hex token has a non-hex digit");
    }
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

std::string encode_fact_wire(TemplateId tmpl, std::span<const Value> slots,
                             const SymbolTable& symbols,
                             const Schema& schema) {
  service::ByteWriter w;
  w.str(symbols.name(schema.at(tmpl).name));
  w.u32(static_cast<std::uint32_t>(slots.size()));
  for (const Value& v : slots) service::encode_value(w, v, symbols);
  return w.take();
}

std::pair<TemplateId, std::vector<Value>> decode_fact_wire(
    std::string_view bytes, SymbolTable& symbols, const Schema& schema) {
  try {
    service::ByteReader r(bytes);
    const std::string name = r.str();
    const auto tmpl = schema.find(symbols.intern(name));
    if (!tmpl) {
      throw RuntimeError("cluster wire fact names unknown template '" + name +
                         "' (peer runs a different program?)");
    }
    std::vector<Value> slots(r.count(service::kMinValueBytes));
    for (Value& v : slots) v = service::decode_value(r, symbols);
    r.finish();
    return {*tmpl, std::move(slots)};
  } catch (const service::JournalError& e) {
    throw RuntimeError(std::string("malformed cluster wire fact: ") +
                       e.what());
  }
}

std::string encode_op_wire(const ClusterOp& op, const SymbolTable& symbols,
                           const Schema& schema) {
  std::string bytes;
  bytes.push_back(static_cast<char>(op.kind));
  bytes += encode_fact_wire(op.tmpl, op.slots, symbols, schema);
  return bytes;
}

ClusterOp decode_op_wire(std::string_view bytes, SymbolTable& symbols,
                         const Schema& schema) {
  if (bytes.empty()) throw RuntimeError("empty cluster wire op");
  const auto kind = static_cast<std::uint8_t>(bytes[0]);
  if (kind > static_cast<std::uint8_t>(ClusterOp::Kind::Retract)) {
    throw RuntimeError("cluster wire op has unknown kind " +
                       std::to_string(kind));
  }
  ClusterOp op;
  op.kind = static_cast<ClusterOp::Kind>(kind);
  auto [tmpl, slots] = decode_fact_wire(bytes.substr(1), symbols, schema);
  op.tmpl = tmpl;
  op.slots = std::move(slots);
  return op;
}

std::string encode_op_hex(const ClusterOp& op, const SymbolTable& symbols,
                          const Schema& schema) {
  return to_hex(encode_op_wire(op, symbols, schema));
}

ClusterOp decode_op_hex(std::string_view hex, SymbolTable& symbols,
                        const Schema& schema) {
  return decode_op_wire(from_hex(hex), symbols, schema);
}

std::uint64_t wire_field_u64(std::string_view line, std::string_view key,
                             std::uint64_t missing) {
  const std::string want = " " + std::string(key) + "=";
  const std::size_t at = line.find(want);
  if (at == std::string_view::npos) return missing;
  const char* first = line.data() + at + want.size();
  const char* last = line.data() + line.size();
  std::uint64_t v = missing;
  std::from_chars(first, last, v);
  return v;
}

std::string wire_field_str(std::string_view line, std::string_view key) {
  const std::string want = " " + std::string(key) + "=";
  const std::size_t at = line.find(want);
  if (at == std::string_view::npos) return {};
  const std::size_t start = at + want.size();
  const std::size_t end = line.find(' ', start);
  return std::string(line.substr(
      start, end == std::string_view::npos ? line.size() - start
                                           : end - start));
}

}  // namespace parulel
