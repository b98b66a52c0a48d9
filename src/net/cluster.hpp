// Cluster socket plumbing: the small, nonblocking line-IO layer the
// multi-process cluster runtime (distrib/site_runner.hpp,
// distrib/cluster_driver.hpp) is built on.
//
// Cluster peers exchange newline-terminated parulel/2 lines, but unlike
// the request/response NetClient a site must interleave many peers plus
// the driver without dedicating a thread to each, so every connection
// is nonblocking and the runtime polls. LineConn owns one such fd and
// splits the byte stream back into lines; reads never block (drain
// whatever the kernel has), writes block at most briefly (poll for
// writability per chunk — cluster lines are small and the peer is
// always draining, so a stuck write means a dead peer, which surfaces
// as a write error and becomes a redial).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace parulel::net {

/// One nonblocking line-oriented TCP connection. Move-only; owns the
/// fd. A read or write failure closes the connection — the cluster
/// runtime treats any dead conn the same way (redial, retransmit), so
/// there is no per-error state to carry.
class LineConn {
 public:
  LineConn() = default;
  /// Takes ownership of `fd`; flips it nonblocking and sets
  /// TCP_NODELAY (barrier latency is round-trip-bound).
  explicit LineConn(int fd);
  ~LineConn();

  LineConn(LineConn&& other) noexcept;
  LineConn& operator=(LineConn&& other) noexcept;
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Drain every byte the kernel has ready and append each complete
  /// line (newline stripped) to `out`. Never blocks. Returns false —
  /// and closes — on EOF or a read error; lines already split are
  /// still in `out`.
  bool read_lines(std::vector<std::string>& out);

  /// Write one line (newline appended), polling for writability on a
  /// full socket buffer. Returns false — and closes — on error.
  bool write_line(std::string_view line);

  /// Write `data` as is: whole newline-terminated lines composed by the
  /// caller, sent in as few write(2) calls as the socket takes. Same
  /// polling and failure rules as write_line.
  bool write_all(std::string_view data);

 private:
  /// Move every complete line of rbuf_ into `out`, keeping the
  /// unterminated fragment (if any) buffered.
  void split_lines(std::vector<std::string>& out);

  int fd_ = -1;
  std::string rbuf_;
};

/// Blocking-with-timeout TCP connect. Returns the connected fd, or -1
/// with `error` set.
int dial_tcp(const std::string& host, std::uint16_t port, std::string* error,
             std::uint64_t timeout_ms = 5000);

/// Nonblocking loopback listener. Binds 127.0.0.1:`port` (0 = ephemeral;
/// the bound port lands in `*bound_port`). Returns the listen fd, or -1
/// with `error` set.
int listen_tcp(std::uint16_t port, std::uint16_t* bound_port,
               std::string* error);

/// Accept one pending connection off a nonblocking listener, or -1 when
/// none is waiting.
int accept_conn(int listen_fd);

}  // namespace parulel::net
