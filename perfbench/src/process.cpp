#include "process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

extern char** environ;

namespace perfbench {

namespace {

[[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

} // namespace

ChildProcess::ChildProcess(const std::vector<std::string>& argv) {
    int in_pipe[2];
    int out_pipe[2];
    if (pipe2(in_pipe, O_CLOEXEC) != 0)
        fail("pipe");
    if (pipe2(out_pipe, O_CLOEXEC) != 0) {
        close(in_pipe[0]);
        close(in_pipe[1]);
        fail("pipe");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
    std::vector<char*> args;
    for (const std::string& a : argv)
        args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    const int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    close(in_pipe[0]);
    close(out_pipe[1]);
    stdin_fd_ = in_pipe[1];
    stdout_fd_ = out_pipe[0];
    if (rc != 0) {
        close(stdin_fd_);
        close(stdout_fd_);
        errno = rc;
        fail("spawn " + argv[0]);
    }
}

ChildProcess::~ChildProcess() {
    if (pid_ < 0)
        return;
    if (stdin_fd_ >= 0)
        close(stdin_fd_);
    if (stdout_fd_ >= 0)
        close(stdout_fd_);
    // Only reached on an error path: make sure the child does not linger.
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
}

void ChildProcess::write_line(const std::string& line) {
    std::string out = line;
    out += '\n';
    std::size_t done = 0;
    while (done < out.size()) {
        const ssize_t n = write(stdin_fd_, out.data() + done, out.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fail("write to server");
        }
        done += static_cast<std::size_t>(n);
    }
}

bool ChildProcess::read_line(std::string& line, int timeout_ms) {
    while (true) {
        const std::size_t nl = buffer_.find('\n', buffer_pos_);
        if (nl != std::string::npos) {
            line.assign(buffer_, buffer_pos_, nl - buffer_pos_);
            buffer_pos_ = nl + 1;
            return true;
        }
        buffer_.erase(0, buffer_pos_);
        buffer_pos_ = 0;
        pollfd pfd{stdout_fd_, POLLIN, 0};
        const int ready = poll(&pfd, 1, timeout_ms);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            fail("poll on server stdout");
        }
        if (ready == 0)
            throw std::runtime_error("server sent nothing for " +
                                     std::to_string(timeout_ms) + " ms");
        char chunk[1 << 16];
        const ssize_t n = read(stdout_fd_, chunk, sizeof chunk);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fail("read from server");
        }
        if (n == 0)
            return false;
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

struct rusage ChildProcess::finish() {
    close(stdin_fd_);
    stdin_fd_ = -1;
    // Drain what is left so the child never blocks on a full stdout pipe.
    std::string rest;
    while (read_line(rest)) {
    }
    close(stdout_fd_);
    stdout_fd_ = -1;
    int status = 0;
    struct rusage ru {};
    while (wait4(pid_, &status, 0, &ru) < 0) {
        if (errno != EINTR)
            fail("wait4");
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("server exited abnormally (status " +
                                 std::to_string(status) + ")");
    return ru;
}

void ChildProcess::kill_now() {
    if (pid_ >= 0)
        kill(pid_, SIGKILL);
}

double cpu_seconds(const struct rusage& ru) {
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

} // namespace perfbench
