// Per-session write-ahead journal: the durability substrate for the
// rule service (service.hpp) and the parulel/2 exactly-once protocol.
//
// File format — an append-only stream of CRC-framed records:
//
//   record  := [u32 payload_len][u32 crc32(payload)][payload]
//   payload := [u8 type][body]            (little-endian throughout)
//
// The first record is always a Header (magic "PJNL", format version,
// session name, program source text). A Snapshot record, when present,
// immediately follows the header — journal truncation rewrites the file
// as header+snapshot via write-tmp/fsync/rename, so a journal is either
// the old complete file or the new complete file, never a mix. Every
// other record is a Batch: the assert/retract ops of one committed
// protocol batch, split into segments (one per recognize-act commit, so
// replay reproduces the exact run_to_quiescence boundaries and with
// them the exact FactId assignment), plus the acknowledgements of the
// parulel/2 request ids the batch made durable. The batch record is
// written — and fsynced, under the default policy — BEFORE its `ok`
// leaves the process; that ordering is the exactly-once invariant (see
// ARCHITECTURE.md, durability).
//
// Replay tolerance: a record that fails its CRC (or runs past EOF) and
// extends to the end of the file is a *torn tail* — the rest of a write
// the crash interrupted — and is dropped; by the invariant above its
// batch was never acknowledged, so dropping it is correct. A CRC
// failure with valid data after it is real corruption, and so is an
// unknown record type, a bad magic, or a format version newer than this
// build: all of those throw JournalError and the service quarantines
// the journal (fail closed) rather than guess at half a state.
//
// Symbols are encoded as text and re-interned on decode: symbol ids are
// interning-order-dependent and a recovering process interns in a
// different order than the crashed one did.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/stats.hpp"
#include "service/session.hpp"

namespace parulel::service {

/// Structured journal failure. The kind decides the service's reaction:
/// Corrupt (CRC mismatch, bad magic, version skew — the file lies) is
/// quarantined at recovery and retryable on the write path, while Io
/// (write/fsync failure: ENOSPC, a dying disk) means the journal can no
/// longer keep its ordering promise at all, so the session is
/// quarantined immediately and answers `err journal-io` until an
/// operator intervenes.
class JournalError : public std::runtime_error {
 public:
  enum class Kind { Corrupt, Io };

  explicit JournalError(const std::string& what)
      : std::runtime_error(what), kind_(Kind::Corrupt) {}
  JournalError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  Kind kind() const { return kind_; }
  bool is_io() const { return kind_ == Kind::Io; }

 private:
  Kind kind_;
};

/// Durability knobs, carried inside ServiceConfig. Journaling is off
/// (and the service's fast path untouched) until `dir` is set.
struct JournalConfig {
  /// Directory for per-session journals (<name>.wal). Empty = disabled.
  std::string dir;

  /// Rewrite the journal as one snapshot after this many batch records
  /// (bounds both file growth and recovery time). 0 = never truncate;
  /// recovery then replays from batch 0, which is exact for every
  /// program (see Session::restore_exact on snapshot compatibility).
  std::uint64_t snapshot_every = 32;

  /// fsync(2) after every record (and snapshot rewrite). Turning this
  /// off trades the power-loss guarantee for throughput — a kill -9
  /// still loses nothing, an OS crash may; bench_s3_durability measures
  /// the gap.
  bool fsync = true;

  /// Per-session dedup window: the most recent N acknowledged request
  /// ids whose cached responses a replayed request can still be
  /// answered from. Older ids answer `err stale request id`.
  std::size_t dedup_window = 256;

  /// Test hook: called before every record write; a nonzero return is
  /// treated as that errno failing the write (ENOSPC drills without a
  /// full disk). Never set in production.
  std::function<int()> fail_writes;

  bool enabled() const { return !dir.empty(); }
};

/// Newest journal format this build reads and writes. Files carrying a
/// larger version fail closed.
inline constexpr std::uint32_t kJournalFormatVersion = 1;

enum class RecordType : std::uint8_t {
  Header = 1,
  Snapshot = 2,
  Batch = 3,
  /// Cluster site WAL records (src/distrib/site_journal.hpp): one
  /// distributed site's applied peer messages + local ops per cycle,
  /// and its checkpoint. They share this framing, CRC, torn-tail and
  /// truncation machinery; their payload codecs live with the cluster
  /// runtime. SiteSnapshot, like Snapshot, is written only through the
  /// atomic rewrite, so a torn one is corruption, not a tail.
  SiteBatch = 4,
  SiteSnapshot = 5,
};

/// Stable human-readable name of a record type byte ("header",
/// "snapshot", "batch", "site-batch", "site-snapshot"); "unknown" for
/// anything else. Used by recovery reports to say WHICH record a crash
/// tore, not just how many bytes were dropped.
const char* record_kind_name(std::uint8_t type);

/// One externally-injected working-memory op, as the client sent it.
/// Replay re-applies it through the same Session entry points, so
/// set-semantics absorption and fact-quota rejection re-decide
/// identically.
struct JournalOp {
  enum class Kind : std::uint8_t { Assert = 0, Retract = 1 };
  Kind kind = Kind::Assert;
  TemplateId tmpl = 0;        ///< Assert only
  std::vector<Value> slots;   ///< Assert only
  FactId fact = kInvalidFact;  ///< Retract only
};

/// The ops of ONE RuleService commit (one run_to_quiescence), plus the
/// post-commit state digest replay is verified against. A protocol
/// batch larger than the service's batch_max splits into several
/// commits; preserving that split is what keeps replayed FactId
/// assignment identical.
struct BatchSegment {
  std::vector<JournalOp> ops;
  std::uint64_t fingerprint = 0;  ///< wm content_fingerprint() after commit
  FactId high_water = 0;          ///< wm high_water() after commit
};

/// A request id the batch made durable, with the exact response bytes
/// the client was (about to be) sent — replayed ids answer from here.
struct JournalAck {
  std::uint64_t req = 0;
  std::string response;
};

/// One committed protocol batch: everything between two `run`s that
/// reached the journal, atomically.
struct BatchRecord {
  std::uint64_t seq = 0;  ///< strictly increasing, 1-based, gap-checked
  std::vector<BatchSegment> segments;
  std::vector<JournalAck> acks;
};

/// The state a truncation rewrite preserves: the exact session snapshot
/// plus the dedup window, so resumed clients replay correctly against a
/// truncated journal too.
struct SnapshotRecord {
  std::uint64_t seq = 0;       ///< seq of the last batch folded in
  std::uint64_t last_req = 0;  ///< highest acknowledged request id
  std::vector<JournalAck> dedup;  ///< surviving dedup window, oldest first
  std::uint64_t fingerprint = 0;  ///< verified after restore_exact
  ExactSnapshot state;
};

/// Decoded Header record.
struct JournalHeader {
  std::uint32_t version = kJournalFormatVersion;
  std::string name;
  std::string program_text;
};

// -- encode/decode (exposed for tests and the recovery path) --

/// CRC-32 (reflected, poly 0xEDB88320 — the zlib polynomial).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

// -- little-endian primitive codec --
//
// Shared by the journal record codecs here and the cluster site WAL /
// wire codecs (src/distrib/): one byte layout for every durable or
// shipped payload. Little-endian is assumed (as elsewhere in the tree).

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }
  std::string take() { return std::move(out_); }

 private:
  void raw(const void* p, std::size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }
  std::string out_;
};

/// Throws JournalError on truncated or trailing bytes.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t u32() {
    std::uint32_t v;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, sizeof v);
    return v;
  }
  std::int64_t i64() {
    std::int64_t v;
    raw(&v, sizeof v);
    return v;
  }
  double f64() {
    double v;
    raw(&v, sizeof v);
    return v;
  }
  /// A count of items that each take at least `min_bytes` to encode.
  /// A count the remaining bytes cannot hold is a length-field lie:
  /// reject it before anyone sizes a container from it.
  std::uint32_t count(std::size_t min_bytes) {
    const std::uint32_t n = u32();
    if (n > (data_.size() - pos_) / min_bytes) {
      throw JournalError("journal record count exceeds its bytes");
    }
    return n;
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  void finish() const {
    if (pos_ != data_.size()) {
      throw JournalError("journal record has trailing bytes");
    }
  }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw JournalError("journal record body truncated");
    }
  }
  void raw(void* p, std::size_t n) {
    need(n);
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
  }
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Value codec: symbols travel as TEXT and are re-interned on decode
/// (symbol ids are interning-order-dependent; a recovering or remote
/// process interns in a different order than the writer did). This is
/// what makes the encoding canonical across processes: the same fact
/// content always produces the same bytes.
void encode_value(ByteWriter& w, const Value& v, const SymbolTable& symbols);
Value decode_value(ByteReader& r, SymbolTable& symbols);
/// The shortest encoded value: a kind byte and an empty symbol's length.
inline constexpr std::size_t kMinValueBytes = 1 + 4;

/// `version` is overridable so tests can forge future-format files.
std::string encode_header(const std::string& name,
                          const std::string& program_text,
                          std::uint32_t version = kJournalFormatVersion);
std::string encode_batch(const BatchRecord& record, const SymbolTable& symbols);
std::string encode_snapshot(const SnapshotRecord& record,
                            const SymbolTable& symbols);

/// First payload byte, validated. Throws JournalError on empty or
/// unknown-type payloads.
RecordType record_type(std::string_view payload);

/// The on-disk framing of one record: [u32 len][u32 crc32][payload].
/// Exposed so a replication sink can append shipped record payloads to
/// its copy of a journal byte-identically to the primary's writes.
std::string frame_record(std::string_view payload);

JournalHeader decode_header(std::string_view payload);
BatchRecord decode_batch(std::string_view payload, SymbolTable& symbols);
SnapshotRecord decode_snapshot(std::string_view payload, SymbolTable& symbols);

/// Everything read_journal salvages from a file: the decoded header and
/// the raw payloads of every CRC-valid record after it. Payloads stay
/// raw because decoding needs the SymbolTable of the program the header
/// carries, which the caller parses first.
struct JournalScan {
  JournalHeader header;
  std::vector<std::string> payloads;
  std::uint64_t torn_bytes = 0;  ///< dropped torn-tail bytes, if any
  /// Which record the crash tore, when torn_bytes > 0: a
  /// record_kind_name() string, or "frame" when the tail is too short
  /// to even carry its type byte. Debugging a cluster chaos run needs
  /// to know WHAT was dropped, not just how much.
  std::string torn_kind;
  std::uint64_t torn_offset = 0;  ///< byte offset of the torn frame
};

/// Read and CRC-check a journal. Tolerates (and counts) a torn tail;
/// throws JournalError on mid-file corruption, bad magic/header, or a
/// newer format version.
JournalScan scan_journal(const std::string& path);

/// The append handle the service holds per durable session.
class SessionJournal {
 public:
  /// Create a NEW journal (O_EXCL — an existing file is an error: it
  /// holds state that was neither recovered nor quarantined, and
  /// truncating it would silently destroy a durable session) and write
  /// its header record.
  static std::unique_ptr<SessionJournal> create(
      std::string path, const std::string& name,
      const std::string& program_text, bool fsync_writes, JournalStats* stats,
      std::function<int()> fail_writes = {});

  /// Reopen a recovered journal for appending.
  static std::unique_ptr<SessionJournal> open_append(
      std::string path, bool fsync_writes, JournalStats* stats,
      std::function<int()> fail_writes = {});

  ~SessionJournal();
  SessionJournal(const SessionJournal&) = delete;
  SessionJournal& operator=(const SessionJournal&) = delete;

  /// Frame, append, and (per policy) fsync one record payload. Throws
  /// JournalError on I/O failure; the caller keeps its pending state
  /// and may retry.
  void append(std::string_view payload);

  /// Truncation: atomically replace the whole journal with
  /// header+snapshot (write <path>.tmp, fsync, rename over, fsync the
  /// directory), then continue appending to the new file.
  void rewrite_with_snapshot(const std::string& name,
                             const std::string& program_text,
                             std::string_view snapshot_payload);

  const std::string& path() const { return path_; }

 private:
  SessionJournal(int fd, std::string path, bool fsync_writes,
                 JournalStats* stats);

  /// Frame `payload` and write it to `fd` (not necessarily fd_).
  void write_record(int fd, std::string_view payload);
  void sync(int fd);

  int fd_ = -1;
  std::string path_;
  bool fsync_ = true;
  /// Counter sink; a shared discard instance when the caller passed
  /// nullptr, so the write path never branches on it.
  JournalStats* stats_ = nullptr;
  std::function<int()> fail_writes_;  ///< test hook (JournalConfig)
};

}  // namespace parulel::service
