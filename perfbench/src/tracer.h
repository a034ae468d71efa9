#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

/// \file tracer.h
/// In-memory span recorder for the traced run. A span has a name, start,
/// end, parent span and the job id it belongs to; spans stay in memory and
/// are written once, at the end, as Chrome trace-event JSON (which
/// Perfetto and chrome://tracing load). A layer's self time is its span
/// minus the part of it that its child spans cover.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class Tracer {
public:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    explicit Tracer(bool enabled = true) : enabled_(enabled) {}

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// Opens a span; returns its handle (kNone when disabled). `name` must
    /// be a string literal or otherwise outlive the tracer. Thread-safe.
    std::size_t begin(const char* name, std::int64_t job, std::size_t parent = kNone);
    /// Closes a span opened by begin(); may run on another thread.
    void end(std::size_t span);

    /// RAII span on the current scope.
    class Scope {
    public:
        Scope(Tracer& t, const char* name, std::int64_t job,
              std::size_t parent = kNone)
            : tracer_(t), span_(t.begin(name, job, parent)) {}
        ~Scope() { tracer_.end(span_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        [[nodiscard]] std::size_t id() const noexcept { return span_; }

    private:
        Tracer& tracer_;
        std::size_t span_;
    };

    struct LayerTime {
        std::size_t count = 0;
        double total_s = 0.0; ///< sum of span durations
        double self_s = 0.0;  ///< sum of self times
    };
    /// Per span name. Call after every span has ended.
    [[nodiscard]] std::map<std::string, LayerTime> layer_times() const;

    /// Writes every span as Chrome trace-event JSON ("X" events, times in
    /// microseconds, each with its job, parent and self time in args).
    void write_chrome_json(const std::string& path) const;

    [[nodiscard]] std::size_t size() const;

private:
    using Clock = std::chrono::steady_clock;
    struct Span {
        const char* name;
        std::int64_t job;
        std::size_t parent;
        std::int64_t start_ns;
        std::int64_t end_ns;
        unsigned thread;
    };

    [[nodiscard]] std::int64_t now_ns() const;
    [[nodiscard]] std::vector<std::int64_t> self_ns() const; // mutex_ held

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;                   // guarded by mutex_
    std::map<std::thread::id, unsigned> threads_; // guarded by mutex_
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
