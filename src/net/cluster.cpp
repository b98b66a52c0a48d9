#include "net/cluster.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace parulel::net {

namespace {

void set_nonblocking(int fd) {
  const int fl = ::fcntl(fd, F_GETFL, 0);
  if (fl >= 0) ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
}

}  // namespace

LineConn::LineConn(int fd) : fd_(fd) {
  if (fd_ < 0) return;
  set_nonblocking(fd_);
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

LineConn::~LineConn() { close(); }

LineConn::LineConn(LineConn&& other) noexcept
    : fd_(other.fd_), rbuf_(std::move(other.rbuf_)) {
  other.fd_ = -1;
}

LineConn& LineConn::operator=(LineConn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    rbuf_ = std::move(other.rbuf_);
    other.fd_ = -1;
  }
  return *this;
}

void LineConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rbuf_.clear();
}

bool LineConn::read_lines(std::vector<std::string>& out) {
  if (fd_ < 0) return false;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n > 0) {
      rbuf_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EOF or hard error: split out what we have, then report dead.
    split_lines(out);
    close();
    return false;
  }
  split_lines(out);
  return true;
}

void LineConn::split_lines(std::vector<std::string>& out) {
  // Walk an offset and drop the consumed prefix once: erasing per line
  // would move the unread tail once per line, quadratic in a big burst.
  std::size_t from = 0;
  std::size_t at;
  while ((at = rbuf_.find('\n', from)) != std::string::npos) {
    out.emplace_back(rbuf_, from, at - from);
    from = at + 1;
  }
  rbuf_.erase(0, from);
}

bool LineConn::write_line(std::string_view line) {
  std::string data(line);
  data.push_back('\n');
  return write_all(data);
}

bool LineConn::write_all(std::string_view data) {
  if (fd_ < 0) return false;
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd_, POLLOUT, 0};
      const int rc = ::poll(&pfd, 1, 5000);
      if (rc > 0) continue;
      // Timed out (peer not draining = effectively dead) or poll error.
      close();
      return false;
    }
    close();
    return false;
  }
  return true;
}

int dial_tcp(const std::string& host, std::uint16_t port, std::string* error,
             std::uint64_t timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error) *error = "bad address: " + host;
    ::close(fd);
    return -1;
  }
  const std::string where = host + ":" + std::to_string(port);
  set_nonblocking(fd);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    if (error) *error = "connect " + where + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    do {
      rc = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) {
      if (error) {
        *error = "connect " + where + ": " +
                 (rc == 0 ? "timed out" : std::strerror(errno));
      }
      ::close(fd);
      return -1;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (so_error != 0) {
      if (error) *error = "connect " + where + ": " + std::strerror(so_error);
      ::close(fd);
      return -1;
    }
  }
  return fd;
}

int listen_tcp(std::uint16_t port, std::uint16_t* bound_port,
               std::string* error) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error) {
      *error = "bind 127.0.0.1:" + std::to_string(port) + ": " +
               std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 64) != 0) {
    if (error) *error = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  if (bound_port &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    *bound_port = ntohs(addr.sin_port);
  }
  return fd;
}

int accept_conn(int listen_fd) {
  const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) return -1;
  return fd;
}

}  // namespace parulel::net
