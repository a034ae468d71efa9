#include "server/transport.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/contracts.h"
#include "server/fd_io.h"
#include "server/wire.h"

namespace xysig::server {

// ----------------------------------------------------------- ProcessTransport

namespace {

[[nodiscard]] std::string errno_message(const char* what) {
    return std::string("transport: ") + what + " failed: " +
           std::strerror(errno);
}

} // namespace

ProcessTransport::ProcessTransport(std::vector<std::string> argv)
    : argv_(std::move(argv)) {
    XYSIG_EXPECTS(!argv_.empty());
    detail::ignore_sigpipe_once();

    // O_CLOEXEC on every pipe end: without it each child would inherit the
    // pipes of every OTHER live transport, and closing a worker's stdin
    // would no longer deliver EOF (a sibling still holds a duplicate write
    // end) — teardown would always eat the kill grace. dup2 clears the
    // flag on fds 0/1, so the child's own ends survive exec.
    int to_child[2] = {-1, -1};
    int from_child[2] = {-1, -1};
    if (::pipe2(to_child, O_CLOEXEC) != 0)
        throw Error(errno_message("pipe2"));
    if (::pipe2(from_child, O_CLOEXEC) != 0) {
        ::close(to_child[0]);
        ::close(to_child[1]);
        throw Error(errno_message("pipe2"));
    }

    // Built BEFORE fork(): in a multithreaded parent another thread may
    // hold the allocator lock at fork time, so the child must not malloc
    // between fork and exec.
    std::vector<char*> cargv;
    cargv.reserve(argv_.size() + 1);
    for (std::string& arg : argv_)
        cargv.push_back(arg.data());
    cargv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        for (const int fd : {to_child[0], to_child[1], from_child[0],
                             from_child[1]})
            ::close(fd);
        throw Error(errno_message("fork"));
    }
    if (pid == 0) {
        ::dup2(to_child[0], STDIN_FILENO);
        ::dup2(from_child[1], STDOUT_FILENO);
        ::execvp(cargv[0], cargv.data());
        ::_exit(127); // exec failed; the parent sees EOF and reports closed
    }

    ::close(to_child[0]);
    ::close(from_child[1]);
    pid_ = pid;
    stdin_fd_ = to_child[1];
    stdout_fd_ = from_child[0];
}

ProcessTransport::~ProcessTransport() { shutdown(); }

bool ProcessTransport::send_line(const std::string& line) {
    // fd_write_all loops over short writes and EINTR — a partial write()
    // on a full pipe must never be treated as success (the child would
    // see a truncated line mid-JSON and the driver would kill it).
    if (stdin_fd_ < 0)
        return false;
    return detail::fd_write_line(stdin_fd_, line);
}

Transport::ReadStatus ProcessTransport::read_line(std::string& out,
                                                  double timeout_seconds) {
    return detail::fd_read_line(stdout_fd_, buffer_, out, timeout_seconds);
}

void ProcessTransport::shutdown() {
    if (stdin_fd_ >= 0) {
        ::close(stdin_fd_); // the server's request loop exits on stdin EOF
        stdin_fd_ = -1;
    }
    if (stdout_fd_ >= 0) {
        // Close the read side BEFORE reaping: a child mid-stream can be
        // blocked in write() on a full stdout pipe (nobody reads it once we
        // decided to tear the peer down); with the read end gone it dies on
        // EPIPE instead of eating the whole kill grace below.
        ::close(stdout_fd_);
        stdout_fd_ = -1;
    }
    if (pid_ > 0) {
        const pid_t pid = static_cast<pid_t>(pid_);
        bool reaped = false;
        // ~2 s of grace for a clean exit, then SIGKILL a wedged child — a
        // worker being torn down is by definition not trusted to cooperate.
        for (int i = 0; i < 200 && !reaped; ++i) {
            int status = 0;
            const pid_t r = ::waitpid(pid, &status, WNOHANG);
            if (r == pid || (r < 0 && errno != EINTR)) {
                reaped = true;
                break;
            }
            ::usleep(10'000);
        }
        if (!reaped) {
            ::kill(pid, SIGKILL);
            int status = 0;
            while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
            }
        }
        pid_ = -1;
    }
}

std::string ProcessTransport::describe() const {
    return "process[" + (pid_ > 0 ? std::to_string(pid_) : "dead") + ", " +
           argv_.front() + "]";
}

// ---------------------------------------------------------- LoopbackTransport

LoopbackTransport::LoopbackTransport(Options options) : options_(options) {
    SweepServiceOptions sopts;
    sopts.workers = options_.workers;
    service_ = std::make_unique<SweepService>(
        make_paper_pipeline(options_.samples_per_period), sopts);
    session_ = std::make_unique<ServerSession>(
        *service_, [this](const std::string& line) {
            MutexLock lock(mutex_);
            if (dead_)
                return; // a crashed process emits nothing further
            responses_.push_back(line);
            if (options_.die_after_results != 0 &&
                line.find("\"event\":\"result\"") != std::string::npos &&
                ++results_emitted_ >= options_.die_after_results) {
                // Simulated worker death: exactly die_after_results result
                // lines made it out, everything after is lost. Cancel the
                // in-flight job so the session thread winds down.
                dead_ = true;
                session_->cancel("");
            }
            response_cv_.notify_all();
        });
    thread_ = std::thread([this] { server_main(); });
}

LoopbackTransport::~LoopbackTransport() { shutdown(); }

void LoopbackTransport::server_main() {
    session_->emit_ready(options_.samples_per_period);
    while (true) {
        std::string line;
        {
            MutexLock lock(mutex_);
            request_cv_.wait(lock, [&]() REQUIRES(mutex_) {
                return stopping_ || !requests_.empty();
            });
            if (stopping_ || dead_)
                break;
            line = std::move(requests_.front());
            requests_.pop_front();
        }
        if (!session_->handle_line(line))
            break; // quit
        MutexLock lock(mutex_);
        if (stopping_ || dead_)
            break;
    }
    MutexLock lock(mutex_);
    dead_ = true;
    response_cv_.notify_all();
}

bool LoopbackTransport::send_line(const std::string& line) {
    // Cancels are queued like any other line: handle_line returns as soon
    // as a job is queued, so the session thread reaches them promptly.
    MutexLock lock(mutex_);
    if (dead_ || stopping_)
        return false;
    requests_.push_back(line);
    request_cv_.notify_all();
    return true;
}

Transport::ReadStatus LoopbackTransport::read_line(std::string& out,
                                                   double timeout_seconds) {
    MutexLock lock(mutex_);
    const auto readable = [&]() REQUIRES(mutex_) {
        return !responses_.empty() || dead_;
    };
    if (timeout_seconds <= 0.0) {
        response_cv_.wait(lock, readable);
    } else if (!response_cv_.wait_for(
                   lock, std::chrono::duration<double>(timeout_seconds),
                   readable)) {
        return ReadStatus::timeout;
    }
    if (!responses_.empty()) { // drain buffered lines before reporting death
        out = std::move(responses_.front());
        responses_.pop_front();
        return ReadStatus::line;
    }
    return ReadStatus::closed;
}

void LoopbackTransport::shutdown() {
    {
        MutexLock lock(mutex_);
        stopping_ = true;
        request_cv_.notify_all();
    }
    if (session_ != nullptr)
        session_->cancel(""); // unblock an in-flight job promptly
    if (thread_.joinable())
        thread_.join();
    MutexLock lock(mutex_);
    dead_ = true;
    response_cv_.notify_all();
}

std::string LoopbackTransport::describe() const {
    return "loopback[workers=" + std::to_string(options_.workers) + "]";
}

} // namespace xysig::server
