#ifndef XYSIG_SERVER_TRANSPORT_H
#define XYSIG_SERVER_TRANSPORT_H

/// \file transport.h
/// Line transports for the fan-out driver: one Transport == one worker
/// peer speaking the NDJSON protocol (docs/PROTOCOL.md). Every peer is a
/// file descriptor framed by fd_io.h, and every served socket runs the one
/// session loop, serve_peer():
///
///  * ProcessTransport launches a `sweep_server` child process and pipes
///    request lines to its stdin / event lines from its stdout — the
///    production multi-process path.
///  * LoopbackTransport is one end of a socketpair(AF_UNIX, SOCK_STREAM);
///    serve_peer() serves the other end on a private thread over a private
///    SweepService. It is a TCP connection without the network, so fan-out
///    tests run in-process and need no child processes. Worker death is
///    injected with ChaosTransport (chaos.h), as for every other peer.
///  * TcpTransport (tcp_transport.h) connects to a TcpListener, which
///    serves each accepted socket with serve_peer() too.
///
/// The transports do no handshake of their own: the peer's first line is
/// its ready banner, and FanoutDriver checks its protocol version.
///
/// Thread-safety: one transport is driven by one coordinator thread
/// (send_line / read_line are not required to be concurrently callable);
/// shutdown() may be called from that same thread only.

#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace xysig::server {

class SweepService;
struct SessionOptions;

/// One NDJSON peer connection.
class Transport {
public:
    enum class ReadStatus {
        line,    ///< a complete line was read into `out`
        timeout, ///< nothing arrived within the timeout; peer still alive
        closed,  ///< the peer is gone (process exit / socket closed)
    };

    virtual ~Transport() = default;

    /// Sends one request line (without the trailing newline). Returns
    /// false when the peer is already gone.
    virtual bool send_line(const std::string& line) = 0;

    /// Blocks up to timeout_seconds for one event line (timeout <= 0
    /// waits indefinitely). Buffered lines are drained before a closed
    /// peer reports ReadStatus::closed.
    virtual ReadStatus read_line(std::string& out, double timeout_seconds) = 0;

    /// Tears the peer down (closes the child's stdin and reaps it / closes
    /// the socket). Idempotent.
    virtual void shutdown() = 0;

    /// Human-readable peer description for error messages and summaries.
    [[nodiscard]] virtual std::string describe() const = 0;
};

/// Spawns `argv` (argv[0] = the sweep_server binary) with stdin/stdout
/// pipes. read_line polls the pipe, so per-read timeouts work; shutdown
/// closes the child's stdin (the server's getline loop exits on EOF),
/// waits briefly, then SIGKILLs a wedged child.
class ProcessTransport final : public Transport {
public:
    explicit ProcessTransport(std::vector<std::string> argv);
    ~ProcessTransport() override;

    ProcessTransport(const ProcessTransport&) = delete;
    ProcessTransport& operator=(const ProcessTransport&) = delete;

    bool send_line(const std::string& line) override;
    ReadStatus read_line(std::string& out, double timeout_seconds) override;
    void shutdown() override;
    [[nodiscard]] std::string describe() const override;

private:
    std::vector<std::string> argv_;
    long pid_ = -1;     ///< child pid (long to keep <sys/types.h> out of here)
    int stdin_fd_ = -1; ///< write end of the child's stdin
    int stdout_fd_ = -1; ///< read end of the child's stdout
    std::string buffer_; ///< partial-line carry between reads
};

/// In-process peer: the client end of a socketpair whose other end
/// serve_peer() serves over a private SweepService (the paper pipeline,
/// as in sweep_server). shutdown() closes the client end; the session
/// reads EOF, cancels its jobs and exits, and the thread is joined.
class LoopbackTransport final : public Transport {
public:
    struct Options {
        unsigned workers = 2;
        std::size_t samples_per_period = 256;
    };

    // No `Options options = {}` default argument: NSDMIs of a nested class
    // are parsed only at the end of the outermost class, so the default
    // would not compile here (same gotcha as SweepJob's universe structs).
    LoopbackTransport() : LoopbackTransport(Options{}) {}
    explicit LoopbackTransport(Options options);
    ~LoopbackTransport() override;

    LoopbackTransport(const LoopbackTransport&) = delete;
    LoopbackTransport& operator=(const LoopbackTransport&) = delete;

    bool send_line(const std::string& line) override;
    ReadStatus read_line(std::string& out, double timeout_seconds) override;
    void shutdown() override;
    [[nodiscard]] std::string describe() const override;

private:
    Options options_;
    int fd_ = -1;        ///< client end; -1 once shut down
    int served_fd_ = -1; ///< served end; closed after the thread is joined
    std::string buffer_; ///< partial-line carry between reads
    std::unique_ptr<SweepService> service_;
    std::thread thread_;
};

/// The session loop of every served socket (TcpListener connections and
/// LoopbackTransport): a ServerSession over `service` writes its events to
/// `fd`, emits the ready banner, then handles each request line read from
/// `fd` until the peer quits, reaches EOF, or the socket is shut down
/// under it. On exit it cancels in-flight jobs and shuts `fd` down in both
/// directions, but does not close it: the caller closes `fd` once no other
/// thread can touch the number. Never throws; a failure inside the session
/// only ends this peer.
void serve_peer(int fd, SweepService& service, std::size_t samples_per_period,
                const SessionOptions& options) noexcept;

} // namespace xysig::server

#endif // XYSIG_SERVER_TRANSPORT_H
