#ifndef PERFBENCH_PROCESS_H
#define PERFBENCH_PROCESS_H

/// \file process.h
/// A child process driven over its stdin/stdout pipes, one line at a time:
/// how the benchmark talks to the real sweep_server binary.

#include <sys/resource.h>
#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

class ChildProcess {
public:
    /// Spawns argv[0] (a path) with stdin and stdout on pipes; stderr is
    /// inherited. Throws std::runtime_error when the spawn fails.
    explicit ChildProcess(const std::vector<std::string>& argv);
    /// Closes stdin and reaps the child if finish() was not called.
    ~ChildProcess();

    ChildProcess(const ChildProcess&) = delete;
    ChildProcess& operator=(const ChildProcess&) = delete;

    /// Writes line + '\n' completely (blocks while the pipe is full).
    /// Throws std::runtime_error when the child's stdin is gone.
    void write_line(const std::string& line);

    /// Reads the next stdout line without its '\n'. Returns false at EOF;
    /// throws std::runtime_error when no byte arrives for timeout_ms.
    bool read_line(std::string& line, int timeout_ms = 120000);

    /// Closes stdin (EOF ends sweep_server after it drains) and waits for
    /// the child. Returns its rusage; throws if it did not exit with 0.
    struct rusage finish();

    /// SIGKILLs the child (error paths: unblocks a thread stuck writing to
    /// it). The destructor still reaps it.
    void kill_now();

private:
    pid_t pid_ = -1;
    int stdin_fd_ = -1;
    int stdout_fd_ = -1;
    std::string buffer_;
    std::size_t buffer_pos_ = 0;
};

/// User + system CPU seconds of an rusage.
[[nodiscard]] double cpu_seconds(const struct rusage& ru);

} // namespace perfbench

#endif // PERFBENCH_PROCESS_H
