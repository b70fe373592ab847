//===- net/Socket.h - Thread-parking TCP sockets ----------------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RAII non-blocking TCP endpoints whose blocking operations park the
/// calling *thread* in IoService — never the VP, which keeps
/// dispatching other threads (the paper's non-blocking I/O requirement,
/// section 6, applied to sockets). Every operation has a Deadline-taking
/// variant, and all of them ride awaitUntil's cancellation protocol: a
/// threadTerminate/raiseIn aimed at a thread parked here unwinds through
/// the waiter-record retraction in IoService, so no registration survives
/// the frame and no wakeup is lost.
///
/// Chaos builds perturb the data plane: Site::NetShortIo truncates a
/// read/write request to one byte (forcing resumption loops through the
/// buffering layer), and Site::NetAcceptDeny makes accept spin one extra
/// lap as if the backlog were empty.
///
//===----------------------------------------------------------------------===//

#ifndef STING_NET_SOCKET_H
#define STING_NET_SOCKET_H

#include "io/IoService.h"
#include "support/Deadline.h"

#include <cstdint>
#include <sys/types.h>

namespace sting::net {

/// A connected TCP stream, move-only, closing its descriptor on
/// destruction. Streams made by connectUntil/acceptUntil run with
/// TCP_NODELAY: the protocols here are small request/reply and push
/// frames, and Nagle's algorithm would hold a frame written behind an
/// unacknowledged one until the peer's delayed ACK (~40 ms). All I/O parks the calling thread (not the VP) until the
/// kernel is ready; deadline overruns surface as -1 with errno=ETIMEDOUT,
/// service shutdown as -1 with errno=ECANCELED.
class Socket {
public:
  Socket() = default;
  /// Adopts \p Fd (made non-blocking here if it is not already).
  Socket(IoService &Io, int Fd);
  ~Socket() { close(); }

  Socket(Socket &&O) noexcept : Io(O.Io), Fd(O.Fd) { O.Fd = -1; }
  Socket &operator=(Socket &&O) noexcept {
    if (this != &O) {
      close();
      Io = O.Io;
      Fd = O.Fd;
      O.Fd = -1;
    }
    return *this;
  }
  Socket(const Socket &) = delete;
  Socket &operator=(const Socket &) = delete;

  bool valid() const { return Fd >= 0; }
  int fd() const { return Fd; }
  IoService &io() const { return *Io; }

  /// Reads up to \p N bytes, parking until data (or EOF) arrives.
  /// \returns bytes read, 0 on EOF, -1 on error.
  ssize_t read(void *Buf, std::size_t N) {
    return readUntil(Buf, N, Deadline::never());
  }

  /// Timed read; -1/ETIMEDOUT once \p D expires with nothing read.
  ssize_t readUntil(void *Buf, std::size_t N, Deadline D);

  /// Writes up to \p N bytes, parking while the send buffer is full.
  ssize_t write(const void *Buf, std::size_t N) {
    return writeUntil(Buf, N, Deadline::never());
  }

  /// Timed write; -1/ETIMEDOUT once \p D expires with nothing written.
  ssize_t writeUntil(const void *Buf, std::size_t N, Deadline D);

  /// Writes all \p N bytes (multiple rounds). \returns false on error.
  bool writeAll(const void *Buf, std::size_t N) {
    return writeAllUntil(Buf, N, Deadline::never());
  }

  /// Timed writeAll; false with errno=ETIMEDOUT if \p D expires first.
  bool writeAllUntil(const void *Buf, std::size_t N, Deadline D);

  /// Closes the descriptor now (idempotent). Never call it while another
  /// thread may be parked on the socket: a closed descriptor silently
  /// leaves its PP's epoll set and the waiter would never wake.
  void close();

  /// Shuts down both directions (::shutdown(fd, SHUT_RDWR)) but keeps the
  /// descriptor open: every thread parked in a read wakes to EOF and every
  /// parked write fails (EPIPE), while the fd stays valid under them. The
  /// way to wake a socket's own reader from another thread. Idempotent.
  void shutdown();

  /// Releases ownership of the descriptor without closing it.
  int release() {
    int F = Fd;
    Fd = -1;
    return F;
  }

  /// Connects to \p Host:\p Port (dotted-quad IPv4 only — there is no
  /// resolver thread pool; parks through the non-blocking connect).
  /// \returns an invalid Socket on failure (errno preserved).
  static Socket connectTo(IoService &Io, const char *Host,
                          std::uint16_t Port) {
    return connectUntil(Io, Host, Port, Deadline::never());
  }

  /// Timed connect; invalid Socket with errno=ETIMEDOUT on deadline.
  static Socket connectUntil(IoService &Io, const char *Host,
                             std::uint16_t Port, Deadline D);

private:
  IoService *Io = nullptr;
  int Fd = -1;
};

/// A listening TCP socket bound to 127.0.0.1. accept() parks the calling
/// thread until a connection is pending.
class Listener {
public:
  Listener() = default;
  ~Listener() { close(); }

  Listener(Listener &&O) noexcept : Io(O.Io), Fd(O.Fd), BoundPort(O.BoundPort) {
    O.Fd = -1;
  }
  Listener &operator=(Listener &&O) noexcept {
    if (this != &O) {
      close();
      Io = O.Io;
      Fd = O.Fd;
      BoundPort = O.BoundPort;
      O.Fd = -1;
    }
    return *this;
  }
  Listener(const Listener &) = delete;
  Listener &operator=(const Listener &) = delete;

  /// Binds and listens on 127.0.0.1:\p Port (0 picks an ephemeral port,
  /// readable afterwards via port()). With \p ReusePort the socket joins
  /// (or starts) an SO_REUSEPORT group, letting several listeners share
  /// one port with kernel-side load balancing — every member of the group
  /// must set the flag, including the first. \returns an invalid Listener
  /// on failure (errno preserved).
  static Listener listenOn(IoService &Io, std::uint16_t Port,
                           int Backlog = 128, bool ReusePort = false);

  bool valid() const { return Fd >= 0; }
  int fd() const { return Fd; }
  std::uint16_t port() const { return BoundPort; }
  IoService &io() const { return *Io; }

  /// Accepts one connection, parking until the backlog is non-empty.
  /// \returns an invalid Socket on error or service shutdown.
  Socket accept() { return acceptUntil(Deadline::never()); }

  /// Timed accept; invalid Socket with errno=ETIMEDOUT on deadline.
  Socket acceptUntil(Deadline D);

  void close();

private:
  IoService *Io = nullptr;
  int Fd = -1;
  std::uint16_t BoundPort = 0;
};

} // namespace sting::net

#endif // STING_NET_SOCKET_H
