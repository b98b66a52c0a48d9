// Durability tests: the write-ahead journal, crash recovery, and the
// parulel/2 exactly-once contract.
//
// The tentpole gate is the crash-equivalence sweep: drive a durable
// session through a scripted load, "crash" the service at every point
// in the script (with and without losing the last acknowledgement),
// recover from the journal into a fresh service, resume, replay the
// client's unacknowledged suffix, finish the script — and require the
// final working-memory fingerprint to equal an uninterrupted run's,
// across snapshot-truncation intervals. The workload is a consume rule
// (items are retracted into a running tally), so a single double-apply
// or lost batch shifts the tally and the fingerprints diverge.
//
// Around it: record round-trips, CRC framing, torn-tail tolerance vs
// fail-closed corruption, future-format rejection, snapshot truncation,
// dedup-window replay/stale semantics, and quarantine behavior.
#include <gtest/gtest.h>

#include <array>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "distrib/site_journal.hpp"
#include "lang/parser.hpp"
#include "service/journal.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/session.hpp"

namespace parulel::service {
namespace {

namespace fs = std::filesystem;

// Items are consumed (retracted) into a tally: re-applying a batch that
// already committed changes the sum, so the fingerprint catches any
// double-apply. One item is in flight per run, which keeps the rule's
// firings sequential and the tally a plain accumulator.
constexpr const char* kConsumeSource = R"((deftemplate item (slot v))
(deftemplate tally (slot n))
(defrule consume
  ?i <- (item (v ?x))
  ?t <- (tally (n ?c))
  =>
  (retract ?i)
  (retract ?t)
  (assert (tally (n (+ ?c ?x)))))
(deffacts init (tally (n 0))))";

/// A fresh journal directory per test, removed on teardown.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("parulel_journal_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

std::string write_program_file(const std::string& tag) {
  const std::string path =
      (fs::temp_directory_path() / ("parulel_journal_" + tag + ".clp"))
          .string();
  std::ofstream out(path);
  out << kConsumeSource;
  return path;
}

ServiceConfig durable_config(const TempDir& dir,
                             std::uint64_t snapshot_every = 0,
                             std::size_t dedup_window = 256) {
  ServiceConfig cfg;
  cfg.journal.dir = dir.str();
  cfg.journal.snapshot_every = snapshot_every;
  cfg.journal.dedup_window = dedup_window;
  // fsync off in tests: kill -9 durability (what the sweep emulates)
  // only needs the write() ordering, and the sweep opens hundreds of
  // services.
  cfg.journal.fsync = false;
  return cfg;
}

/// Resume the (detached) durable session `name` just long enough to
/// read its fingerprint, then detach again.
std::uint64_t detached_fingerprint(RuleService& svc,
                                   const std::string& name) {
  std::string err;
  const SessionId id = svc.resume_durable(name, &err);
  EXPECT_NE(id, 0u) << err;
  if (id == 0) return 0;
  std::uint64_t fp = 0;
  svc.with_session(id, [&](Session& s) { fp = s.fingerprint(); });
  svc.release_session(id);
  return fp;
}

// ------------------------------------------------------- encode/decode

TEST(JournalCodec, Crc32MatchesKnownVector) {
  // The zlib polynomial's canonical check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(JournalCodec, BatchRecordRoundTrips) {
  SymbolTable symbols;
  BatchRecord record;
  record.seq = 7;
  BatchSegment seg;
  JournalOp op;
  op.kind = JournalOp::Kind::Assert;
  op.tmpl = 3;
  op.slots = {Value::integer(42), Value::symbol(symbols.intern("acme")),
              Value::real(2.5)};
  seg.ops.push_back(op);
  JournalOp retract;
  retract.kind = JournalOp::Kind::Retract;
  retract.fact = 19;
  seg.ops.push_back(retract);
  seg.fingerprint = 0xDEADBEEFCAFE1234ull;
  seg.high_water = 23;
  record.segments.push_back(seg);
  record.acks.push_back({4, "ok assert depth=1\n"});
  record.acks.push_back({5, "ok run cycles=2 committed=5\n"});

  const std::string payload = encode_batch(record, symbols);
  ASSERT_EQ(record_type(payload), RecordType::Batch);

  // Decode through a FRESH symbol table: symbol ids are interning-order
  // dependent, so the codec must carry symbols as text.
  SymbolTable fresh;
  const BatchRecord back = decode_batch(payload, fresh);
  EXPECT_EQ(back.seq, 7u);
  ASSERT_EQ(back.segments.size(), 1u);
  ASSERT_EQ(back.segments[0].ops.size(), 2u);
  EXPECT_EQ(back.segments[0].ops[0].tmpl, 3u);
  ASSERT_EQ(back.segments[0].ops[0].slots.size(), 3u);
  EXPECT_EQ(back.segments[0].ops[0].slots[0], Value::integer(42));
  EXPECT_EQ(back.segments[0].ops[0].slots[1],
            Value::symbol(fresh.intern("acme")));
  EXPECT_EQ(back.segments[0].ops[1].kind, JournalOp::Kind::Retract);
  EXPECT_EQ(back.segments[0].ops[1].fact, 19u);
  EXPECT_EQ(back.segments[0].fingerprint, 0xDEADBEEFCAFE1234ull);
  EXPECT_EQ(back.segments[0].high_water, 23u);
  ASSERT_EQ(back.acks.size(), 2u);
  EXPECT_EQ(back.acks[0].req, 4u);
  EXPECT_EQ(back.acks[1].response, "ok run cycles=2 committed=5\n");
}

// Length-field lies: every 4-byte field of a batch and a snapshot
// record set to 0xffffffff. Counts that the remaining bytes cannot hold
// must fail closed before a container is sized from them, not ask the
// allocator for tens of GiB.
TEST(JournalCodec, CountFieldLiesFailClosed) {
  SymbolTable symbols;
  JournalOp op;
  op.tmpl = 2;
  op.slots = {Value::integer(42), Value::symbol(symbols.intern("acme"))};
  BatchRecord batch;
  batch.seq = 3;
  batch.segments.push_back({{op}, 0x1234, 9});
  batch.acks.push_back({4, "ok\n"});
  SnapshotRecord snap;
  snap.seq = 3;
  snap.dedup.push_back({4, "ok\n"});
  snap.state.facts.push_back({7, 2, op.slots});

  const std::string payloads[] = {encode_batch(batch, symbols),
                                  encode_snapshot(snap, symbols)};
  std::size_t rejected = 0;
  for (const std::string& payload : payloads) {
    for (std::size_t at = 1; at + 4 <= payload.size(); ++at) {
      std::string lie = payload;
      lie.replace(at, 4, 4, '\xff');
      SymbolTable fresh;
      try {
        if (record_type(lie) == RecordType::Batch) {
          decode_batch(lie, fresh);
        } else {
          decode_snapshot(lie, fresh);
        }
      } catch (const JournalError&) {
        ++rejected;
      }
    }
  }
  // Batch: the segment, op, slot and ack counts at least.
  EXPECT_GE(rejected, 4u);
}

TEST(JournalCodec, HeaderRoundTripsAndFutureVersionFailsClosed) {
  const std::string payload = encode_header("sess", kConsumeSource);
  ASSERT_EQ(record_type(payload), RecordType::Header);
  const JournalHeader h = decode_header(payload);
  EXPECT_EQ(h.version, kJournalFormatVersion);
  EXPECT_EQ(h.name, "sess");
  EXPECT_EQ(h.program_text, kConsumeSource);

  const std::string future =
      encode_header("sess", kConsumeSource, kJournalFormatVersion + 1);
  EXPECT_THROW(decode_header(future), JournalError);
}

TEST(JournalCodec, UnknownRecordTypeFailsClosed) {
  EXPECT_THROW(record_type(""), JournalError);
  EXPECT_THROW(record_type(std::string(1, '\x7f')), JournalError);
}

// --------------------------------------------------- file-level framing

/// Append one batch journal via the real writer and return its bytes.
std::string build_journal(const TempDir& dir, std::size_t batches) {
  JournalStats stats;
  const std::string path = (dir.path / "s.wal").string();
  auto journal =
      SessionJournal::create(path, "s", kConsumeSource, false, &stats);
  SymbolTable symbols;
  for (std::size_t i = 0; i < batches; ++i) {
    BatchRecord record;
    record.seq = i + 1;
    BatchSegment seg;
    JournalOp op;
    op.tmpl = 1;
    op.slots = {Value::integer(static_cast<std::int64_t>(i))};
    seg.ops.push_back(op);
    record.segments.push_back(seg);
    record.acks.push_back({i + 1, "ok run\n"});
    journal->append(encode_batch(record, symbols));
  }
  journal.reset();
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(JournalScanTest, TruncationSweepTornTailOnly) {
  TempDir dir("torn");
  const std::string bytes = build_journal(dir, 3);
  const std::string path = (dir.path / "s.wal").string();

  const JournalScan full = scan_journal(path);
  EXPECT_EQ(full.payloads.size(), 3u);
  EXPECT_EQ(full.torn_bytes, 0u);
  const std::size_t header_end = bytes.size() -
      [&] {  // total batch-record bytes = file minus the header record
        std::size_t n = 0;
        for (const std::string& p : full.payloads) n += 8 + p.size();
        return n;
      }();

  // Chop the file at every byte past the header record: the scan must
  // never throw and never invent records — it salvages the complete
  // prefix and counts the rest as the torn tail.
  for (std::size_t cut = bytes.size() - 1; cut >= header_end; --cut) {
    write_bytes(path, bytes.substr(0, cut));
    const JournalScan scan = scan_journal(path);
    EXPECT_LE(scan.payloads.size(), 3u);
    std::size_t complete = header_end;
    for (const std::string& p : scan.payloads) complete += 8 + p.size();
    EXPECT_EQ(scan.torn_bytes, cut - complete) << "cut=" << cut;
  }

  // Chopping inside the header record destroys the journal's identity:
  // that is corruption, not a torn tail.
  write_bytes(path, bytes.substr(0, header_end - 1));
  EXPECT_THROW(scan_journal(path), JournalError);
}

TEST(JournalScanTest, FlippedCrcMidFileFailsClosed) {
  TempDir dir("crc");
  const std::string bytes = build_journal(dir, 3);
  const std::string path = (dir.path / "s.wal").string();

  // Corrupt a payload byte of the FIRST batch record: valid records
  // follow, so this is real corruption and must throw, not be
  // "torn-tailed" away. (The offset math mirrors the framing: the
  // header record ends at file size minus the three framed batches.)
  const JournalScan intact = scan_journal(path);
  std::size_t batch_bytes = 0;
  for (const std::string& p : intact.payloads) batch_bytes += 8 + p.size();
  const std::size_t first_payload = bytes.size() - batch_bytes + 8;
  std::string corrupt = bytes;
  corrupt[first_payload] ^= 0x01;
  write_bytes(path, corrupt);
  EXPECT_THROW(scan_journal(path), JournalError);

  // The same flip in the LAST byte is a torn tail: the damaged record
  // reaches EOF, exactly what a crash mid-write leaves behind.
  corrupt = bytes;
  corrupt.back() ^= 0x01;
  write_bytes(path, corrupt);
  const JournalScan scan = scan_journal(path);
  EXPECT_EQ(scan.payloads.size(), 2u);
  EXPECT_GT(scan.torn_bytes, 0u);
}

TEST(JournalScanTest, BadMagicAndFutureVersionFailClosed) {
  TempDir dir("magic");
  const std::string path = (dir.path / "s.wal").string();
  write_bytes(path, "this is not a journal at all, sorry");
  EXPECT_THROW(scan_journal(path), JournalError);

  // A well-framed file whose header claims a future format version must
  // fail closed too: this build cannot know what the records mean.
  const std::string payload =
      encode_header("s", kConsumeSource, kJournalFormatVersion + 1);
  std::string framed;
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  framed.append(reinterpret_cast<const char*>(&len), 4);
  framed.append(reinterpret_cast<const char*>(&crc), 4);
  framed += payload;
  write_bytes(path, framed);
  EXPECT_THROW(scan_journal(path), JournalError);
}

TEST(JournalScanTest, CreateRefusesToClobberExistingJournal) {
  TempDir dir("clobber");
  build_journal(dir, 1);
  JournalStats stats;
  EXPECT_THROW(SessionJournal::create((dir.path / "s.wal").string(), "s",
                                      kConsumeSource, false, &stats),
               JournalError);
}

// ------------------------------------------------ exact-state snapshots

TEST(ExactSnapshotTest, RoundTripReproducesFingerprintAndIds) {
  const Program program = parse_program(kConsumeSource);
  const TemplateId item =
      *program.schema.find(program.symbols->intern("item"));
  SessionConfig cfg;
  Session a(program, cfg);
  a.assert_fact(item, {Value::integer(5)});
  a.run_to_quiescence();
  a.assert_fact(item, {Value::integer(9)});
  a.run_to_quiescence();

  const ExactSnapshot snap = a.snapshot_exact();
  SessionConfig bcfg;
  bcfg.assert_initial_facts = false;
  Session b(program, bcfg);
  b.restore_exact(snap);
  EXPECT_EQ(b.fingerprint(), a.fingerprint());
  EXPECT_EQ(b.wm().high_water(), a.wm().high_water());

  // FactId assignment must continue identically after a restore.
  FactId ida = kInvalidFact, idb = kInvalidFact;
  a.assert_fact(item, {Value::integer(2)}, &ida);
  b.assert_fact(item, {Value::integer(2)}, &idb);
  EXPECT_EQ(ida, idb);
  a.run_to_quiescence();
  b.run_to_quiescence();
  EXPECT_EQ(b.fingerprint(), a.fingerprint());
}

// --------------------------------------------- protocol-level durability

/// Drive one line through a protocol, returning the response bytes.
std::string drive(ServeProtocol& proto, const std::string& line) {
  std::string out;
  proto.handle_line(line, out);
  return out;
}

TEST(DurableProtocol, OpenRunRecoverResume) {
  TempDir dir("roundtrip");
  const std::string prog = write_program_file("roundtrip");
  std::uint64_t fp_before = 0;
  {
    RuleService svc(durable_config(dir));
    {
      ServeProtocol proto(svc);
      EXPECT_EQ(drive(proto, "open s " + prog).substr(0, 7), "ok open");
      EXPECT_EQ(drive(proto, "@1 assert s item 5"),
                "ok assert depth=1\n");
      const std::string run = drive(proto, "@2 run s");
      EXPECT_EQ(run.substr(0, 6), "ok run") << run;
      EXPECT_NE(run.find(" committed=2"), std::string::npos) << run;
    }  // conversation ends: durable session detaches, stays resumable
    fp_before = detached_fingerprint(svc, "s");
  }  // service dies with the session detached — the journal survives

  RuleService svc(durable_config(dir));
  const std::vector<RecoveryReport> reports = svc.recover_journals();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok) << reports[0].error;
  EXPECT_EQ(reports[0].name, "s");
  EXPECT_EQ(reports[0].batches, 1u);
  EXPECT_EQ(reports[0].fingerprint, fp_before);

  ServeProtocol proto(svc);
  const std::string resumed = drive(proto, "resume s");
  EXPECT_EQ(resumed.substr(0, 11), "ok resume s") << resumed;
  EXPECT_NE(resumed.find(" committed=2"), std::string::npos) << resumed;
  const std::string q = drive(proto, "query s tally");
  EXPECT_NE(q.find("(n 5)"), std::string::npos) << q;
}

TEST(DurableProtocol, ReplayAnswersFromCacheWithoutReExecuting) {
  TempDir dir("replay");
  const std::string prog = write_program_file("replay");
  RuleService svc(durable_config(dir));
  ServeProtocol proto(svc);
  drive(proto, "open s " + prog);
  drive(proto, "@1 assert s item 5");
  const std::string first = drive(proto, "@2 run s");
  EXPECT_EQ(first.substr(0, 6), "ok run");

  // Same ids again — a client retrying after a lost ack. The responses
  // must be byte-identical AND the tally must not move: the item was
  // consumed, so a real re-execution would change it.
  EXPECT_EQ(drive(proto, "@1 assert s item 5"), "ok assert depth=1\n");
  EXPECT_EQ(drive(proto, "@2 run s"), first);
  const std::string q = drive(proto, "query s tally");
  EXPECT_NE(q.find("(n 5)"), std::string::npos) << q;
}

TEST(DurableProtocol, StaleIdsBeyondTheWindowFailClosed) {
  TempDir dir("stale");
  const std::string prog = write_program_file("stale");
  RuleService svc(durable_config(dir, 0, /*dedup_window=*/2));
  ServeProtocol proto(svc);
  drive(proto, "open s " + prog);
  drive(proto, "@1 assert s item 1");
  drive(proto, "@2 run s");
  drive(proto, "@3 assert s item 2");
  drive(proto, "@4 run s");
  // ids 1 and 2 have been evicted from the 2-deep window: replaying
  // them cannot be answered exactly-once anymore, so it must be an
  // error, never a silent re-execution.
  EXPECT_EQ(drive(proto, "@1 assert s item 1"),
            "err stale request id: @1\n");
  const std::string q = drive(proto, "query s tally");
  EXPECT_NE(q.find("(n 3)"), std::string::npos) << q;
}

TEST(DurableProtocol, RequestIdsRequireDurableSessions) {
  ServiceConfig cfg;  // no journal dir
  RuleService svc(cfg);
  ServeProtocol proto(svc);
  const std::string prog = write_program_file("plain");
  drive(proto, "open s " + prog);
  const std::string out = drive(proto, "@1 assert s item 1");
  EXPECT_EQ(out.substr(0, 3), "err") << out;
  EXPECT_NE(out.find("durable"), std::string::npos) << out;
  // resume needs journaling too.
  EXPECT_EQ(drive(proto, "resume t").substr(0, 3), "err");
}

TEST(DurableProtocol, CorruptJournalQuarantinesAndFailsClosed) {
  TempDir dir("quarantine");
  const std::string prog = write_program_file("quarantine");
  {
    RuleService svc(durable_config(dir));
    ServeProtocol proto(svc);
    drive(proto, "open s " + prog);
    drive(proto, "@1 assert s item 5");
    drive(proto, "@2 run s");
    drive(proto, "@3 assert s item 7");
    drive(proto, "@4 run s");
  }
  // Flip a byte in the middle of the journal: mid-file corruption.
  const std::string path = (dir.path / "s.wal").string();
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes[bytes.size() / 2] ^= 0x40;
  write_bytes(path, bytes);

  RuleService svc(durable_config(dir));
  const std::vector<RecoveryReport> reports = svc.recover_journals();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].ok);
  EXPECT_FALSE(reports[0].error.empty());

  // The name answers err (fail closed), for resume AND for re-open —
  // silently rebuilding over a corrupt journal would destroy evidence.
  ServeProtocol proto(svc);
  EXPECT_NE(drive(proto, "resume s").find("journal-corrupt"),
            std::string::npos);
  EXPECT_NE(drive(proto, "open s " + prog).find("journal-corrupt"),
            std::string::npos);
  // And the file is left untouched for the operator.
  std::ifstream back(path, std::ios::binary);
  std::string after((std::istreambuf_iterator<char>(back)),
                    std::istreambuf_iterator<char>());
  EXPECT_EQ(after, bytes);
  EXPECT_EQ(svc.journal_stats_snapshot().recovery_failures, 1u);
}

// A cluster site's WAL records share the session journal's framing, so
// a session journal can hold one only by mistake or tampering. Recovery
// must fail closed on it, not skip it and serve a state that silently
// lacks whatever the record was meant to carry.
TEST(DurableProtocol, ClusterSiteRecordInSessionJournalFailsClosed) {
  const Program program = parse_program(kConsumeSource);
  SiteBatchRecord batch;
  batch.seq = 1;
  batch.local.push_back({ClusterOp::Kind::Assert, 0, {Value::integer(4)}});
  SiteSnapshotRecord snap;
  snap.seq = 1;
  const std::pair<const char*, std::string> cases[] = {
      {"site-batch",
       encode_site_batch(batch, *program.symbols, program.schema)},
      {"site-snapshot",
       encode_site_snapshot(snap, *program.symbols, program.schema)},
  };
  for (const auto& [kind, payload] : cases) {
    SCOPED_TRACE(kind);
    TempDir dir(std::string("site_record_") + kind);
    {
      JournalStats stats;
      auto journal = SessionJournal::create((dir.path / "s.wal").string(),
                                            "s", kConsumeSource, false,
                                            &stats);
      journal->append(payload);
    }
    RuleService svc(durable_config(dir));
    const std::vector<RecoveryReport> reports = svc.recover_journals();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_FALSE(reports[0].ok);
    EXPECT_NE(reports[0].error.find(kind), std::string::npos)
        << reports[0].error;
    ServeProtocol proto(svc);
    EXPECT_NE(drive(proto, "resume s").find("journal-corrupt"),
              std::string::npos);
  }
}

TEST(DurableProtocol, CloseUnlinksTheJournal) {
  TempDir dir("close");
  const std::string prog = write_program_file("close");
  RuleService svc(durable_config(dir));
  ServeProtocol proto(svc);
  drive(proto, "open s " + prog);
  EXPECT_TRUE(fs::exists(dir.path / "s.wal"));
  EXPECT_EQ(drive(proto, "close s"), "ok close s\n");
  EXPECT_FALSE(fs::exists(dir.path / "s.wal"));
}

TEST(DurableProtocol, SnapshotTruncationBoundsTheFileAndKeepsState) {
  TempDir dir("snapshot");
  const std::string prog = write_program_file("snapshot");
  std::uint64_t fp = 0;
  {
    RuleService svc(durable_config(dir, /*snapshot_every=*/2));
    ServeProtocol proto(svc);
    drive(proto, "open s " + prog);
    std::uint64_t req = 1;
    for (int v : {3, 1, 4, 1, 5, 9}) {
      drive(proto, "@" + std::to_string(req++) + " assert s item " +
                       std::to_string(v));
      const std::string run =
          drive(proto, "@" + std::to_string(req++) + " run s");
      EXPECT_EQ(run.substr(0, 6), "ok run") << run;
    }
    EXPECT_GE(svc.journal_stats_snapshot().snapshots, 2u);
    {
      ServeProtocol reader(svc);
      // still attached to `proto` — the name is taken
      EXPECT_EQ(drive(reader, "resume s").substr(0, 3), "err");
    }
  }
  {
    RuleService svc(durable_config(dir, 2));
    const auto reports = svc.recover_journals();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_TRUE(reports[0].ok) << reports[0].error;
    EXPECT_TRUE(reports[0].from_snapshot);
    fp = reports[0].fingerprint;
    ServeProtocol proto(svc);
    const std::string q = drive(proto, "query s tally");
    EXPECT_EQ(drive(proto, "resume s").substr(0, 3), "ok ");
    EXPECT_NE(drive(proto, "query s tally").find("(n 23)"),
              std::string::npos);
  }
  // The truncated journal recovers to the same state an untruncated one
  // would have: compare against a no-snapshot control run of the same
  // script in a fresh directory.
  TempDir control_dir("snapshot_control");
  RuleService control(durable_config(control_dir, 0));
  {
    ServeProtocol proto(control);
    drive(proto, "open s " + prog);
    std::uint64_t req = 1;
    for (int v : {3, 1, 4, 1, 5, 9}) {
      drive(proto, "@" + std::to_string(req++) + " assert s item " +
                       std::to_string(v));
      drive(proto, "@" + std::to_string(req++) + " run s");
    }
  }
  EXPECT_EQ(detached_fingerprint(control, "s"), fp);
}

// ------------------------------- fail-closed: torn atomic records, ENOSPC

TEST(JournalScanTest, TornReportNamesTheRecordKindAndByteOffset) {
  TempDir dir("torn_kind");
  const std::string bytes = build_journal(dir, 2);
  const std::string path = (dir.path / "s.wal").string();

  const JournalScan full = scan_journal(path);
  ASSERT_EQ(full.payloads.size(), 2u);
  EXPECT_TRUE(full.torn_kind.empty());
  const std::size_t last_start =
      bytes.size() - (8 + full.payloads.back().size());

  // A cut past the last record's type byte: the report names WHICH
  // record kind the crash tore and where its frame starts, so an
  // operator can tell a torn batch (normal crash debris) from a torn
  // snapshot (atomic-rewrite machinery failed).
  write_bytes(path, bytes.substr(0, last_start + 9));
  JournalScan scan = scan_journal(path);
  EXPECT_EQ(scan.payloads.size(), 1u);
  EXPECT_GT(scan.torn_bytes, 0u);
  EXPECT_EQ(scan.torn_kind, "batch");
  EXPECT_EQ(scan.torn_offset, last_start);

  // A cut INSIDE the 8-byte frame header: not even the type byte
  // survived, so the kind degrades to "frame" at the same offset.
  write_bytes(path, bytes.substr(0, last_start + 5));
  scan = scan_journal(path);
  EXPECT_EQ(scan.payloads.size(), 1u);
  EXPECT_EQ(scan.torn_kind, "frame");
  EXPECT_EQ(scan.torn_offset, last_start);
}

TEST(JournalScanTest, TornHeaderRecordQuarantinesNotCrashes) {
  TempDir dir("torn_header");
  const std::string bytes = build_journal(dir, 1);
  const std::string path = (dir.path / "s.wal").string();

  // The header record spans [0, header_end); it is only ever written
  // through the atomic create/rewrite path, so a PARTIAL header is
  // never a crash-interrupted append — it is corruption and the scan
  // must fail closed at every cut point, not salvage or crash.
  std::uint32_t header_len = 0;
  std::memcpy(&header_len, bytes.data(), 4);
  const std::size_t header_end = 8 + header_len;
  for (const std::size_t cut :
       {std::size_t{3}, std::size_t{9}, header_end / 2, header_end - 1}) {
    write_bytes(path, bytes.substr(0, cut));
    EXPECT_THROW(scan_journal(path), JournalError) << "cut=" << cut;
  }

  // Recovery turns the throw into a quarantine: the name answers err
  // and the damaged file stays on disk as evidence.
  write_bytes(path, bytes.substr(0, header_end / 2));
  RuleService svc(durable_config(dir));
  const auto reports = svc.recover_journals();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].ok);
  ServeProtocol proto(svc);
  EXPECT_NE(drive(proto, "resume s").find("journal-corrupt"),
            std::string::npos);
  EXPECT_TRUE(fs::exists(path));
}

TEST(JournalScanTest, TornSnapshotRecordQuarantinesNotCrashes) {
  TempDir dir("torn_snap");
  const std::string prog = write_program_file("torn_snap");
  {
    RuleService svc(durable_config(dir, /*snapshot_every=*/1));
    ServeProtocol proto(svc);
    drive(proto, "open s " + prog);
    drive(proto, "@1 assert s item 5");
    EXPECT_EQ(drive(proto, "@2 run s").substr(0, 6), "ok run");
    EXPECT_GE(svc.journal_stats_snapshot().snapshots, 1u);
  }
  const std::string path = (dir.path / "s.wal").string();
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // After the snapshot_every=1 truncation the file is exactly header +
  // snapshot; like the header, the snapshot record is written atomically
  // (tmp + rename), so a torn one is corruption, not a torn tail.
  ASSERT_EQ(record_type(scan_journal(path).payloads.back()),
            RecordType::Snapshot);
  std::uint32_t header_len = 0;
  std::memcpy(&header_len, bytes.data(), 4);
  const std::size_t header_end = 8 + header_len;
  for (const std::size_t cut : {header_end + 9, bytes.size() - 1}) {
    write_bytes(path, bytes.substr(0, cut));
    EXPECT_THROW(scan_journal(path), JournalError) << "cut=" << cut;
  }

  write_bytes(path, bytes.substr(0, bytes.size() - 1));
  RuleService svc(durable_config(dir, 1));
  const auto reports = svc.recover_journals();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].ok);
  ServeProtocol proto(svc);
  EXPECT_NE(drive(proto, "resume s").find("journal-corrupt"),
            std::string::npos);
}

TEST(DurableProtocol, JournalIoFailureQuarantinesTheSession) {
  TempDir dir("journal_io");
  const std::string prog = write_program_file("journal_io");
  ServiceConfig cfg = durable_config(dir);
  // The injectable write-failure hook: the next `armed` journal writes
  // fail like a full disk.
  int armed = 0;
  cfg.journal.fail_writes = [&armed]() -> int {
    if (armed == 0) return 0;
    --armed;
    return ENOSPC;
  };
  {
    RuleService svc(cfg);
    ServeProtocol proto(svc);
    EXPECT_EQ(drive(proto, "open s " + prog).substr(0, 3), "ok ");
    drive(proto, "@1 assert s item 5");
    EXPECT_EQ(drive(proto, "@2 run s").substr(0, 6), "ok run");

    armed = 1;
    drive(proto, "@3 assert s item 7");
    const std::string r = drive(proto, "@4 run s");
    // A dedicated, non-retryable error class: the batch is NOT durable
    // and the session is frozen, so replaying @4 must not re-execute.
    EXPECT_EQ(r.substr(0, 15), "err journal-io:") << r;
    EXPECT_NE(r.find("No space left"), std::string::npos) << r;

    // Quarantined: open and resume both fail closed on the name (from a
    // fresh conversation — this one still holds the frozen session).
    ServeProtocol other(svc);
    EXPECT_NE(drive(other, "resume s").find("journal-corrupt"),
              std::string::npos);
    EXPECT_NE(drive(other, "open s " + prog).find("journal-corrupt"),
              std::string::npos);
  }
  // Teardown must NOT unlink the journal — the intact prefix is the
  // operator's evidence and holds every batch acked so far.
  EXPECT_TRUE(fs::exists(dir.path / "s.wal"));

  // What reached disk before the failure recovers cleanly elsewhere:
  // batch @2 (tally 5) is there, the refused batch @4 is not.
  RuleService fresh(durable_config(dir));
  const auto reports = fresh.recover_journals();
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_TRUE(reports[0].ok) << reports[0].error;
  EXPECT_EQ(reports[0].batches, 1u);
  ServeProtocol reader(fresh);
  EXPECT_EQ(drive(reader, "resume s").substr(0, 3), "ok ");
  EXPECT_NE(drive(reader, "query s tally").find("(n 5)"),
            std::string::npos);
}

// ------------------------------------- tentpole: crash-equivalence sweep

/// The client half of the exactly-once contract, emulated in-process:
/// stamped lines stay buffered until a response's `committed=K` covers
/// them, exactly like net::RetryClient.
struct EmulatedClient {
  std::vector<std::pair<std::uint64_t, std::string>> buffer;

  static std::uint64_t committed_of(const std::string& response) {
    const std::size_t at = response.find(" committed=");
    if (at == std::string::npos) return 0;
    return std::strtoull(response.c_str() + at + 11, nullptr, 10);
  }

  void sent(std::uint64_t req, const std::string& line) {
    buffer.emplace_back(req, line);
  }
  void acked(const std::string& response) {
    const std::uint64_t k = committed_of(response);
    while (!buffer.empty() && buffer.front().first <= k) {
      buffer.erase(buffer.begin());
    }
  }
};

struct ScriptLine {
  std::uint64_t req;
  std::string line;
};

std::vector<ScriptLine> make_script() {
  std::vector<ScriptLine> script;
  std::uint64_t req = 1;
  for (int v : {3, 1, 4, 1, 5, 9, 2, 6}) {
    script.push_back({req, "@" + std::to_string(req) + " assert s item " +
                               std::to_string(v)});
    ++req;
    script.push_back({req, "@" + std::to_string(req) + " run s"});
    ++req;
  }
  return script;
}

TEST(CrashEquivalence, EveryKillPointRecoversToTheUninterruptedState) {
  const std::string prog = write_program_file("sweep");
  const std::vector<ScriptLine> script = make_script();

  // Reference: the uninterrupted run.
  std::uint64_t reference = 0;
  {
    TempDir dir("sweep_ref");
    RuleService svc(durable_config(dir));
    {
      ServeProtocol proto(svc);
      ASSERT_EQ(drive(proto, "open s " + prog).substr(0, 3), "ok ");
      for (const ScriptLine& l : script) {
        ASSERT_EQ(drive(proto, l.line).substr(0, 3), "ok ") << l.line;
      }
    }
    reference = detached_fingerprint(svc, "s");
    ASSERT_NE(reference, 0u);
  }

  for (const std::uint64_t snapshot_every : {0ull, 1ull, 4ull}) {
    for (std::size_t kill = 1; kill <= script.size(); ++kill) {
      for (const bool lose_last_ack : {false, true}) {
        TempDir dir("sweep");
        EmulatedClient client;

        // Phase 1: feed the prefix, then "crash" — the service object
        // dies; only what reached the journal before each ack exists.
        {
          RuleService svc(durable_config(dir, snapshot_every));
          ServeProtocol proto(svc);
          ASSERT_EQ(drive(proto, "open s " + prog).substr(0, 3), "ok ");
          for (std::size_t i = 0; i < kill; ++i) {
            client.sent(script[i].req, script[i].line);
            const std::string r = drive(proto, script[i].line);
            ASSERT_EQ(r.substr(0, 3), "ok ") << script[i].line;
            // Losing the final ack means the client never saw its
            // committed= watermark — the line stays buffered and must
            // be replayed, where only the dedup window keeps it from
            // double-applying.
            if (!(lose_last_ack && i + 1 == kill)) client.acked(r);
          }
        }

        // Phase 2: recover, resume, replay the unacked suffix, finish.
        RuleService svc(durable_config(dir, snapshot_every));
        const auto reports = svc.recover_journals();
        ASSERT_EQ(reports.size(), 1u);
        ASSERT_TRUE(reports[0].ok)
            << reports[0].error << " snap=" << snapshot_every
            << " kill=" << kill;
        {
          ServeProtocol proto(svc);
          const std::string resumed = drive(proto, "resume s");
          ASSERT_EQ(resumed.substr(0, 3), "ok ") << resumed;
          client.acked(resumed);
          const auto replay = client.buffer;
          for (const auto& [req, line] : replay) {
            const std::string r = drive(proto, line);
            ASSERT_EQ(r.substr(0, 3), "ok ")
                << r << " replaying " << line;
            client.acked(r);
          }
          for (std::size_t i = kill; i < script.size(); ++i) {
            client.sent(script[i].req, script[i].line);
            const std::string r = drive(proto, script[i].line);
            ASSERT_EQ(r.substr(0, 3), "ok ") << script[i].line;
            client.acked(r);
          }
        }
        EXPECT_EQ(detached_fingerprint(svc, "s"), reference)
            << "snap=" << snapshot_every << " kill=" << kill
            << " lose_last_ack=" << lose_last_ack;
      }
    }
  }
}

// ----------------------------------------- shard pinning + worker modes

TEST(ShardPinning, HashIsStableAndPartitionsNames) {
  // The pinning hash is part of the on-disk contract: a journal written
  // by an N-shard server must recover onto the same shard next boot.
  // These anchors (FNV-1a) must never change across releases.
  EXPECT_EQ(shard_for_name("s", 2), 0u);
  EXPECT_EQ(shard_for_name("t", 2), 1u);
  EXPECT_EQ(shard_for_name("s", 4), 0u);
  EXPECT_EQ(shard_for_name("t", 4), 1u);
  EXPECT_EQ(shard_for_name("a", 4), 2u);
  EXPECT_EQ(shard_for_name("b", 4), 3u);
  // shards <= 1 degenerates to "everything on shard 0".
  EXPECT_EQ(shard_for_name("anything", 0), 0u);
  EXPECT_EQ(shard_for_name("anything", 1), 0u);
  // Deterministic and in range for arbitrary names.
  for (const char* name : {"", "x", "orderbook", "a-long-session-name"}) {
    const unsigned home = shard_for_name(name, 8);
    EXPECT_LT(home, 8u);
    EXPECT_EQ(home, shard_for_name(name, 8));
    EXPECT_EQ(durable_name_hash(name) % 8, home);
  }
}

TEST(DurableWorkers, AsyncWorkerModeCommitsPerSession) {
  // The journal-before-ack ordering is per session, so durable sessions
  // no longer require workers == 0. Drive two interleaved sessions
  // through a worker-pool service and require recovery to land on the
  // same fingerprints as a synchronous control run.
  const std::string prog = write_program_file("workers");
  const std::vector<int> load = {3, 1, 4, 1, 5, 9};

  auto drive_script = [&](RuleService& svc) {
    ServeProtocol proto(svc);
    EXPECT_EQ(drive(proto, "open s " + prog).substr(0, 3), "ok ");
    EXPECT_EQ(drive(proto, "open t " + prog).substr(0, 3), "ok ");
    std::uint64_t req = 1;
    for (int v : load) {
      for (const char* name : {"s", "t"}) {
        const std::string a =
            drive(proto, "@" + std::to_string(req) + " assert " + name +
                             " item " + std::to_string(v));
        EXPECT_EQ(a.substr(0, 3), "ok ") << a;
        const std::string r =
            drive(proto, "@" + std::to_string(req + 1) + " run " + name);
        EXPECT_EQ(r.substr(0, 6), "ok run") << r;
      }
      req += 2;
    }
  };

  TempDir control_dir("workers_control");
  RuleService control(durable_config(control_dir));
  drive_script(control);

  TempDir dir("workers_async");
  std::uint64_t fp_s = 0, fp_t = 0;
  {
    ServiceConfig cfg = durable_config(dir);
    cfg.workers = 2;
    RuleService svc(cfg);
    drive_script(svc);
    fp_s = detached_fingerprint(svc, "s");
    fp_t = detached_fingerprint(svc, "t");
  }
  EXPECT_EQ(fp_s, detached_fingerprint(control, "s"));
  EXPECT_EQ(fp_t, detached_fingerprint(control, "t"));

  // And what reached disk is recoverable — by another worker-pool
  // service — to the identical state.
  ServiceConfig cfg = durable_config(dir);
  cfg.workers = 2;
  RuleService svc(cfg);
  const auto reports = svc.recover_journals();
  ASSERT_EQ(reports.size(), 2u);
  for (const auto& report : reports) {
    EXPECT_TRUE(report.ok) << report.name << ": " << report.error;
    EXPECT_EQ(report.fingerprint, report.name == "s" ? fp_s : fp_t);
  }
}

// ------------------------- tentpole: sharded crash-equivalence sweep

// The sharded analogue of the kill-point sweep: two names owned by
// DIFFERENT shards of 2 (under the pinning hash), a service per shard,
// and recovery partitioned by the same hash filter the sharded
// NetServer uses. Every kill point must recover both names to the
// uninterrupted run's fingerprints — shard ownership must never leak a
// batch across partitions or lose one inside them.
TEST(CrashEquivalence, ShardPartitionedRecoveryMatchesUninterrupted) {
  const std::string prog = write_program_file("shard_sweep");
  const std::array<const char*, 2> names = {"s", "t"};
  ASSERT_EQ(shard_for_name(names[0], 2), 0u);
  ASSERT_EQ(shard_for_name(names[1], 2), 1u);

  // The interleaved script: line i addresses names[i % 2]; request ids
  // are per session.
  struct ShardLine {
    unsigned shard;
    std::uint64_t req;
    std::string line;
  };
  std::vector<ShardLine> script;
  std::array<std::uint64_t, 2> req = {1, 1};
  for (int v : {3, 1, 4, 1, 5, 9}) {
    for (unsigned which = 0; which < 2; ++which) {
      const std::string name = names[which];
      script.push_back({which, req[which],
                        "@" + std::to_string(req[which]) + " assert " + name +
                            " item " + std::to_string(v + int(which))});
      ++req[which];
      script.push_back({which, req[which],
                        "@" + std::to_string(req[which]) + " run " + name});
      ++req[which];
    }
  }

  auto shard_filter = [](unsigned shard) {
    return [shard](const std::string& name) {
      return shard_for_name(name, 2) == shard;
    };
  };

  // Reference: the uninterrupted run, one service per shard.
  std::array<std::uint64_t, 2> reference = {0, 0};
  {
    TempDir dir0("shard_sweep_ref0"), dir1("shard_sweep_ref1");
    RuleService svc0(durable_config(dir0)), svc1(durable_config(dir1));
    const std::array<RuleService*, 2> svcs = {&svc0, &svc1};
    {
      ServeProtocol p0(svc0), p1(svc1);
      const std::array<ServeProtocol*, 2> protos = {&p0, &p1};
      for (unsigned which = 0; which < 2; ++which) {
        ASSERT_EQ(drive(*protos[which],
                        std::string("open ") + names[which] + " " + prog)
                      .substr(0, 3),
                  "ok ");
      }
      for (const ShardLine& l : script) {
        ASSERT_EQ(drive(*protos[l.shard], l.line).substr(0, 3), "ok ")
            << l.line;
      }
    }
    for (unsigned which = 0; which < 2; ++which) {
      reference[which] = detached_fingerprint(*svcs[which], names[which]);
      ASSERT_NE(reference[which], 0u);
    }
  }

  for (std::size_t kill = 1; kill <= script.size(); ++kill) {
    for (const bool lose_last_ack : {false, true}) {
      TempDir dir("shard_sweep");  // both shards journal into one dir,
                                   // exactly like one --journal-dir
      std::array<EmulatedClient, 2> clients;

      // Phase 1: feed the prefix through per-shard services, crash.
      {
        ServiceConfig cfg = durable_config(dir);
        RuleService svc0(cfg), svc1(cfg);
        ServeProtocol p0(svc0), p1(svc1);
        const std::array<ServeProtocol*, 2> protos = {&p0, &p1};
        for (unsigned which = 0; which < 2; ++which) {
          ASSERT_EQ(drive(*protos[which],
                          std::string("open ") + names[which] + " " + prog)
                        .substr(0, 3),
                    "ok ");
        }
        for (std::size_t i = 0; i < kill; ++i) {
          const ShardLine& l = script[i];
          clients[l.shard].sent(l.req, l.line);
          const std::string r = drive(*protos[l.shard], l.line);
          ASSERT_EQ(r.substr(0, 3), "ok ") << l.line;
          if (!(lose_last_ack && i + 1 == kill)) clients[l.shard].acked(r);
        }
      }

      // Phase 2: partitioned recovery — each shard's service sees only
      // its own names — then resume, replay, finish.
      ServiceConfig cfg = durable_config(dir);
      RuleService svc0(cfg), svc1(cfg);
      const std::array<RuleService*, 2> svcs = {&svc0, &svc1};
      for (unsigned which = 0; which < 2; ++which) {
        const auto reports =
            svcs[which]->recover_journals(shard_filter(which));
        ASSERT_EQ(reports.size(), 1u) << "shard " << which;
        ASSERT_TRUE(reports[0].ok) << reports[0].error;
        ASSERT_EQ(reports[0].name, names[which]);
      }
      {
        ServeProtocol p0(svc0), p1(svc1);
        const std::array<ServeProtocol*, 2> protos = {&p0, &p1};
        for (unsigned which = 0; which < 2; ++which) {
          const std::string resumed = drive(
              *protos[which], std::string("resume ") + names[which]);
          ASSERT_EQ(resumed.substr(0, 3), "ok ") << resumed;
          clients[which].acked(resumed);
          const auto replay = clients[which].buffer;
          for (const auto& [rq, line] : replay) {
            const std::string r = drive(*protos[which], line);
            ASSERT_EQ(r.substr(0, 3), "ok ") << r << " replaying " << line;
            clients[which].acked(r);
          }
        }
        for (std::size_t i = kill; i < script.size(); ++i) {
          const ShardLine& l = script[i];
          clients[l.shard].sent(l.req, l.line);
          const std::string r = drive(*protos[l.shard], l.line);
          ASSERT_EQ(r.substr(0, 3), "ok ") << l.line;
          clients[l.shard].acked(r);
        }
      }
      for (unsigned which = 0; which < 2; ++which) {
        EXPECT_EQ(detached_fingerprint(*svcs[which], names[which]),
                  reference[which])
            << "shard=" << which << " kill=" << kill
            << " lose_last_ack=" << lose_last_ack;
      }
    }
  }
}

}  // namespace
}  // namespace parulel::service
