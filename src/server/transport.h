#ifndef XYSIG_SERVER_TRANSPORT_H
#define XYSIG_SERVER_TRANSPORT_H

/// \file transport.h
/// Line transports for the fan-out driver: one Transport == one worker
/// peer speaking the NDJSON protocol (docs/PROTOCOL.md).
///
///  * ProcessTransport launches a `sweep_server` child process and pipes
///    request lines to its stdin / event lines from its stdout — the
///    production multi-process path.
///  * LoopbackTransport runs a real ServerSession over in-process queues
///    on a private SweepService — byte-for-byte the same protocol with no
///    child processes, so fan-out tests are deterministic and fast, and
///    worker death is injectable (die_after_results).
///
/// Thread-safety: one transport is driven by one coordinator thread
/// (send_line / read_line are not required to be concurrently callable);
/// shutdown() may be called from that same thread only.

#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/annotated_mutex.h"

namespace xysig::server {

/// One NDJSON peer connection.
class Transport {
public:
    enum class ReadStatus {
        line,    ///< a complete line was read into `out`
        timeout, ///< nothing arrived within the timeout; peer still alive
        closed,  ///< the peer is gone (process exit / injected death)
    };

    virtual ~Transport() = default;

    /// Sends one request line (without the trailing newline). Returns
    /// false when the peer is already gone.
    virtual bool send_line(const std::string& line) = 0;

    /// Blocks up to timeout_seconds for one event line (timeout <= 0
    /// waits indefinitely). Buffered lines are drained before a closed
    /// peer reports ReadStatus::closed.
    virtual ReadStatus read_line(std::string& out, double timeout_seconds) = 0;

    /// Tears the peer down (closes the child's stdin and reaps it / stops
    /// the loopback session thread). Idempotent.
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

/// In-process peer: a real ServerSession on a private SweepService (the
/// paper pipeline, as in sweep_server), bridged through string queues.
class LoopbackTransport final : public Transport {
public:
    struct Options {
        unsigned workers = 2;
        std::size_t samples_per_period = 256;
        /// Fault injection: after this many result lines the peer "dies" —
        /// emitted lines stop, reads drain then report closed, the
        /// in-flight job is cancelled. 0 = healthy peer.
        std::size_t die_after_results = 0;
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
    void server_main() EXCLUDES(mutex_);

    Options options_;

    Mutex mutex_;
    CondVar request_cv_;
    CondVar response_cv_;
    std::deque<std::string> requests_ GUARDED_BY(mutex_);
    std::deque<std::string> responses_ GUARDED_BY(mutex_);
    bool stopping_ GUARDED_BY(mutex_) = false; ///< shutdown requested;
                                               ///< session thread must exit
    bool dead_ GUARDED_BY(mutex_) = false;     ///< peer gone (injected death
                                               ///< or session exit)
    std::size_t results_emitted_ GUARDED_BY(mutex_) = 0;

    // Owned service/session; pointers so the header stays light.
    std::unique_ptr<class SweepService> service_;
    std::unique_ptr<class ServerSession> session_;
    std::thread thread_;
};

} // namespace xysig::server

#endif // XYSIG_SERVER_TRANSPORT_H
