#include "service/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace parulel::service {

namespace {

constexpr char kMagic[4] = {'P', 'J', 'N', 'L'};

std::string errno_text() { return std::strerror(errno); }

// ByteWriter/ByteReader and the value codec moved to journal.hpp so the
// cluster site WAL and wire codecs (src/distrib/) share one byte layout.

// Shortest encodings of the counted items, for ByteReader::count: an op
// (kind + fact id, or kind + template + empty slot count), an ack (req +
// empty response), a batch segment (op count + fingerprint + high water)
// and a snapshot fact (id + template + slot count).
constexpr std::size_t kMinOpBytes = 1 + 8;
constexpr std::size_t kMinAckBytes = 8 + 4;
constexpr std::size_t kMinSegmentBytes = 4 + 8 + 8;
constexpr std::size_t kMinFactBytes = 8 + 4 + 4;

void encode_op(ByteWriter& w, const JournalOp& op, const SymbolTable& symbols) {
  w.u8(static_cast<std::uint8_t>(op.kind));
  if (op.kind == JournalOp::Kind::Assert) {
    w.u32(op.tmpl);
    w.u32(static_cast<std::uint32_t>(op.slots.size()));
    for (const Value& v : op.slots) encode_value(w, v, symbols);
  } else {
    w.u64(op.fact);
  }
}

JournalOp decode_op(ByteReader& r, SymbolTable& symbols) {
  JournalOp op;
  const std::uint8_t kind = r.u8();
  if (kind == static_cast<std::uint8_t>(JournalOp::Kind::Assert)) {
    op.kind = JournalOp::Kind::Assert;
    op.tmpl = r.u32();
    const std::uint32_t n = r.count(kMinValueBytes);
    op.slots.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      op.slots.push_back(decode_value(r, symbols));
    }
  } else if (kind == static_cast<std::uint8_t>(JournalOp::Kind::Retract)) {
    op.kind = JournalOp::Kind::Retract;
    op.fact = r.u64();
  } else {
    throw JournalError("journal record has unknown op kind");
  }
  return op;
}

void encode_acks(ByteWriter& w, const std::vector<JournalAck>& acks) {
  w.u32(static_cast<std::uint32_t>(acks.size()));
  for (const JournalAck& a : acks) {
    w.u64(a.req);
    w.str(a.response);
  }
}

std::vector<JournalAck> decode_acks(ByteReader& r) {
  std::vector<JournalAck> acks(r.count(kMinAckBytes));
  for (JournalAck& a : acks) {
    a.req = r.u64();
    a.response = r.str();
  }
  return acks;
}

int open_or_throw(const std::string& path, int flags, const char* action) {
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    throw JournalError(std::string("cannot ") + action + " journal '" + path +
                       "': " + errno_text());
  }
  return fd;
}

/// Make a freshly created/renamed directory entry itself durable.
void sync_parent_dir(const std::string& path) {
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(),
                        O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;  // best effort: not all filesystems allow this
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

void encode_value(ByteWriter& w, const Value& v, const SymbolTable& symbols) {
  if (v.is_int()) {
    w.u8(0);
    w.i64(v.as_int());
  } else if (v.is_float()) {
    w.u8(1);
    w.f64(v.as_float());
  } else {
    // Symbols travel as text: symbol ids depend on interning order,
    // which a recovering (or remote) process does not share.
    w.u8(2);
    w.str(symbols.name(v.as_sym()));
  }
}

Value decode_value(ByteReader& r, SymbolTable& symbols) {
  switch (r.u8()) {
    case 0: return Value::integer(r.i64());
    case 1: return Value::real(r.f64());
    case 2: return Value::symbol(symbols.intern(r.str()));
    default: throw JournalError("journal record has unknown value kind");
  }
}

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string encode_header(const std::string& name,
                          const std::string& program_text,
                          std::uint32_t version) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RecordType::Header));
  for (char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u32(version);
  w.str(name);
  w.str(program_text);
  return w.take();
}

std::string encode_batch(const BatchRecord& record,
                         const SymbolTable& symbols) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RecordType::Batch));
  w.u64(record.seq);
  w.u32(static_cast<std::uint32_t>(record.segments.size()));
  for (const BatchSegment& seg : record.segments) {
    w.u32(static_cast<std::uint32_t>(seg.ops.size()));
    for (const JournalOp& op : seg.ops) encode_op(w, op, symbols);
    w.u64(seg.fingerprint);
    w.u64(seg.high_water);
  }
  encode_acks(w, record.acks);
  return w.take();
}

std::string encode_snapshot(const SnapshotRecord& record,
                            const SymbolTable& symbols) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RecordType::Snapshot));
  w.u64(record.seq);
  w.u64(record.last_req);
  encode_acks(w, record.dedup);
  w.u64(record.fingerprint);
  w.u64(record.state.high_water);
  w.u8(record.state.halted ? 1 : 0);
  const SessionCounters& c = record.state.counters;
  w.u64(c.asserts);
  w.u64(c.retracts);
  w.u64(c.modifies);
  w.u64(c.queries);
  w.u64(c.quota_rejected);
  w.u64(c.batches);
  w.u64(c.cycles);
  w.u64(c.firings);
  w.u64(c.rebuilds);
  w.u32(static_cast<std::uint32_t>(record.state.facts.size()));
  for (const Fact& f : record.state.facts) {
    w.u64(f.id);
    w.u32(f.tmpl);
    w.u32(static_cast<std::uint32_t>(f.slots.size()));
    for (const Value& v : f.slots) encode_value(w, v, symbols);
  }
  return w.take();
}

RecordType record_type(std::string_view payload) {
  if (payload.empty()) throw JournalError("empty journal record");
  const auto t = static_cast<std::uint8_t>(payload[0]);
  switch (t) {
    case static_cast<std::uint8_t>(RecordType::Header):
    case static_cast<std::uint8_t>(RecordType::Snapshot):
    case static_cast<std::uint8_t>(RecordType::Batch):
    case static_cast<std::uint8_t>(RecordType::SiteBatch):
    case static_cast<std::uint8_t>(RecordType::SiteSnapshot):
      return static_cast<RecordType>(t);
    default:
      throw JournalError("unknown journal record type " + std::to_string(t));
  }
}

const char* record_kind_name(std::uint8_t type) {
  switch (type) {
    case static_cast<std::uint8_t>(RecordType::Header): return "header";
    case static_cast<std::uint8_t>(RecordType::Snapshot): return "snapshot";
    case static_cast<std::uint8_t>(RecordType::Batch): return "batch";
    case static_cast<std::uint8_t>(RecordType::SiteBatch): return "site-batch";
    case static_cast<std::uint8_t>(RecordType::SiteSnapshot):
      return "site-snapshot";
    default: return "unknown";
  }
}

std::string frame_record(std::string_view payload) {
  std::string frame;
  frame.reserve(8 + payload.size());
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  frame.append(reinterpret_cast<const char*>(&len), 4);
  frame.append(reinterpret_cast<const char*>(&crc), 4);
  frame.append(payload);
  return frame;
}

JournalHeader decode_header(std::string_view payload) {
  ByteReader r(payload);
  if (r.u8() != static_cast<std::uint8_t>(RecordType::Header)) {
    throw JournalError("journal does not start with a header record");
  }
  for (char c : kMagic) {
    if (r.u8() != static_cast<std::uint8_t>(c)) {
      throw JournalError("bad journal magic (not a parulel journal)");
    }
  }
  JournalHeader h;
  h.version = r.u32();
  if (h.version > kJournalFormatVersion) {
    // Fail closed before touching the rest of the layout: a newer
    // format may have changed it.
    throw JournalError("journal format version " + std::to_string(h.version) +
                       " is newer than supported version " +
                       std::to_string(kJournalFormatVersion));
  }
  h.name = r.str();
  h.program_text = r.str();
  r.finish();
  return h;
}

BatchRecord decode_batch(std::string_view payload, SymbolTable& symbols) {
  ByteReader r(payload);
  if (r.u8() != static_cast<std::uint8_t>(RecordType::Batch)) {
    throw JournalError("not a batch record");
  }
  BatchRecord rec;
  rec.seq = r.u64();
  rec.segments.resize(r.count(kMinSegmentBytes));
  for (BatchSegment& seg : rec.segments) {
    seg.ops.resize(r.count(kMinOpBytes));
    for (JournalOp& op : seg.ops) op = decode_op(r, symbols);
    seg.fingerprint = r.u64();
    seg.high_water = r.u64();
  }
  rec.acks = decode_acks(r);
  r.finish();
  return rec;
}

SnapshotRecord decode_snapshot(std::string_view payload, SymbolTable& symbols) {
  ByteReader r(payload);
  if (r.u8() != static_cast<std::uint8_t>(RecordType::Snapshot)) {
    throw JournalError("not a snapshot record");
  }
  SnapshotRecord rec;
  rec.seq = r.u64();
  rec.last_req = r.u64();
  rec.dedup = decode_acks(r);
  rec.fingerprint = r.u64();
  rec.state.high_water = r.u64();
  rec.state.halted = r.u8() != 0;
  SessionCounters& c = rec.state.counters;
  c.asserts = r.u64();
  c.retracts = r.u64();
  c.modifies = r.u64();
  c.queries = r.u64();
  c.quota_rejected = r.u64();
  c.batches = r.u64();
  c.cycles = r.u64();
  c.firings = r.u64();
  c.rebuilds = r.u64();
  rec.state.facts.resize(r.count(kMinFactBytes));
  for (Fact& f : rec.state.facts) {
    f.id = r.u64();
    f.tmpl = r.u32();
    f.slots.resize(r.count(kMinValueBytes));
    for (Value& v : f.slots) v = decode_value(r, symbols);
  }
  r.finish();
  return rec;
}

JournalScan scan_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw JournalError("cannot open journal '" + path + "'");
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());

  std::vector<std::string> payloads;
  std::size_t off = 0;
  std::uint64_t torn = 0;
  std::string torn_kind;
  std::uint64_t torn_offset = 0;
  // The torn frame's record kind ("frame" when the tail is too short to
  // carry its type byte) — recovery reports name WHAT was dropped.
  const auto kind_at = [&](std::size_t frame_off) -> std::string {
    if (data.size() - frame_off < 9) return "frame";
    return record_kind_name(static_cast<std::uint8_t>(data[frame_off + 8]));
  };
  while (off + 8 <= data.size()) {
    std::uint32_t len;
    std::uint32_t want;
    std::memcpy(&len, data.data() + off, 4);
    std::memcpy(&want, data.data() + off + 4, 4);
    // A damaged record reaching EOF is normally a torn tail — a write
    // the crash interrupted — but only Batch/SiteBatch records are ever
    // appended to a live journal. Header and (Site)Snapshot records are
    // written solely through the atomic tmp+rename rewrite, so a torn
    // one cannot be a crash-interrupted append: it is corruption, and
    // tolerating it would silently drop the session's base state.
    const auto torn_is_atomic_record = [&](std::size_t frame_off) {
      if (data.size() - frame_off < 9) return false;  // type byte missing
      const auto t = static_cast<std::uint8_t>(data[frame_off + 8]);
      return t == static_cast<std::uint8_t>(RecordType::Header) ||
             t == static_cast<std::uint8_t>(RecordType::Snapshot) ||
             t == static_cast<std::uint8_t>(RecordType::SiteSnapshot);
    };
    if (data.size() - off - 8 < len) {
      // Frame runs past EOF: the crash interrupted this write.
      if (torn_is_atomic_record(off)) {
        throw JournalError("torn " + kind_at(off) + " record at offset " +
                           std::to_string(off) + " in '" + path +
                           "' (these records are written atomically; "
                           "this is corruption)");
      }
      torn = data.size() - off;
      torn_kind = kind_at(off);
      torn_offset = off;
      break;
    }
    const std::string_view payload(data.data() + off + 8, len);
    if (crc32(payload.data(), payload.size()) != want) {
      if (off + 8 + len == data.size() && !torn_is_atomic_record(off)) {
        // Bad CRC on the final record: torn tail, not corruption.
        torn = data.size() - off;
        torn_kind = kind_at(off);
        torn_offset = off;
        break;
      }
      throw JournalError("journal CRC mismatch mid-file at offset " +
                         std::to_string(off) + " in '" + path + "'");
    }
    payloads.emplace_back(payload);
    off += 8 + len;
  }
  if (torn == 0 && off < data.size()) {
    torn = data.size() - off;
    torn_kind = "frame";
    torn_offset = off;
  }

  if (payloads.empty()) {
    throw JournalError("journal '" + path + "' has no intact header record");
  }
  JournalScan scan;
  scan.header = decode_header(payloads.front());
  scan.payloads.assign(std::make_move_iterator(payloads.begin() + 1),
                       std::make_move_iterator(payloads.end()));
  scan.torn_bytes = torn;
  scan.torn_kind = std::move(torn_kind);
  scan.torn_offset = torn_offset;
  return scan;
}

SessionJournal::SessionJournal(int fd, std::string path, bool fsync_writes,
                               JournalStats* stats)
    : fd_(fd), path_(std::move(path)), fsync_(fsync_writes), stats_(stats) {
  // Callers that don't care about counters may pass nullptr; the write
  // path must never have to branch on it.
  static JournalStats discard;
  if (!stats_) stats_ = &discard;
}

SessionJournal::~SessionJournal() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<SessionJournal> SessionJournal::create(
    std::string path, const std::string& name, const std::string& program_text,
    bool fsync_writes, JournalStats* stats, std::function<int()> fail_writes) {
  const int fd = ::open(path.c_str(),
                        O_CREAT | O_EXCL | O_WRONLY | O_APPEND | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    if (errno == EEXIST) {
      throw JournalError("journal '" + path +
                         "' already exists but was not recovered; refusing "
                         "to overwrite durable state");
    }
    throw JournalError(JournalError::Kind::Io, "cannot create journal '" +
                                                   path + "': " + errno_text());
  }
  std::unique_ptr<SessionJournal> j(
      new SessionJournal(fd, std::move(path), fsync_writes, stats));
  j->fail_writes_ = std::move(fail_writes);
  j->write_record(j->fd_, encode_header(name, program_text));
  j->sync(j->fd_);
  sync_parent_dir(j->path_);
  return j;
}

std::unique_ptr<SessionJournal> SessionJournal::open_append(
    std::string path, bool fsync_writes, JournalStats* stats,
    std::function<int()> fail_writes) {
  const int fd =
      open_or_throw(path, O_WRONLY | O_APPEND | O_CLOEXEC, "reopen");
  std::unique_ptr<SessionJournal> j(
      new SessionJournal(fd, std::move(path), fsync_writes, stats));
  j->fail_writes_ = std::move(fail_writes);
  return j;
}

void SessionJournal::append(std::string_view payload) {
  write_record(fd_, payload);
  if (fsync_) sync(fd_);
}

void SessionJournal::rewrite_with_snapshot(const std::string& name,
                                           const std::string& program_text,
                                           std::string_view snapshot_payload) {
  const std::string tmp = path_ + ".tmp";
  const int fd = ::open(tmp.c_str(),
                        O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw JournalError("cannot create '" + tmp + "': " + errno_text());
  }
  try {
    write_record(fd, encode_header(name, program_text));
    write_record(fd, snapshot_payload);
    // Always fsync before the rename, whatever the append policy: a
    // rename that lands before its data would replace a good journal
    // with garbage on an OS crash.
    sync(fd);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    const std::string reason = errno_text();
    ::unlink(tmp.c_str());
    throw JournalError("cannot rename '" + tmp + "' over journal: " + reason);
  }
  sync_parent_dir(path_);
  ::close(fd_);
  fd_ = open_or_throw(path_, O_WRONLY | O_APPEND | O_CLOEXEC, "reopen");
  ++stats_->snapshots;
}

void SessionJournal::write_record(int fd, std::string_view payload) {
  if (fail_writes_) {
    if (const int e = fail_writes_()) {
      errno = e;
      throw JournalError(JournalError::Kind::Io,
                         "journal write failed: " + errno_text());
    }
  }
  const std::string frame = frame_record(payload);
  const char* p = frame.data();
  std::size_t left = frame.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw JournalError(JournalError::Kind::Io,
                         "journal write failed: " + errno_text());
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  ++stats_->records_written;
  stats_->bytes_written += frame.size();
}

void SessionJournal::sync(int fd) {
  if (::fsync(fd) != 0) {
    throw JournalError(JournalError::Kind::Io,
                       "journal fsync failed: " + errno_text());
  }
  ++stats_->fsyncs;
}

}  // namespace parulel::service
