#include "tracer.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "server/json.h"

namespace perfbench {

std::int64_t Tracer::now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
}

std::size_t Tracer::begin(const char* name, std::int64_t job, std::size_t parent) {
    if (!enabled_)
        return kNone;
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = threads_.emplace(
        std::this_thread::get_id(), static_cast<unsigned>(threads_.size() + 1));
    spans_.push_back(Span{name, job, parent, t, -1, it->second});
    return spans_.size() - 1;
}

void Tracer::end(std::size_t span) {
    if (span == kNone)
        return;
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(span).end_ns = t;
}

std::size_t Tracer::size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::vector<std::int64_t> Tracer::self_ns() const {
    // Children's intervals, clipped to the parent and merged, are the part
    // of the parent covered by children.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        spans_.size());
    for (const Span& s : spans_)
        if (s.parent != kNone && s.parent < spans_.size())
            children[s.parent].emplace_back(s.start_ns, s.end_ns);
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.start_ns;
        for (auto [a, b] : kids) {
            a = std::max(a, reach);
            b = std::min(b, s.end_ns);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
}

std::map<std::string, Tracer::LayerTime> Tracer::layer_times() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<std::int64_t> self = self_ns();
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.end_ns < 0)
            throw std::logic_error(std::string("span never ended: ") + s.name);
        LayerTime& lt = out[s.name];
        ++lt.count;
        lt.total_s += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
        lt.self_s += 1e-9 * static_cast<double>(self[i]);
    }
    return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
    using xysig::server::JsonValue;
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<std::int64_t> self = self_ns();
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        JsonValue::Object args;
        args.emplace("job", static_cast<double>(s.job));
        args.emplace("span", i);
        if (s.parent != kNone)
            args.emplace("parent", s.parent);
        args.emplace("self_us", 1e-3 * static_cast<double>(self[i]));
        JsonValue::Object ev;
        ev.emplace("name", s.name);
        ev.emplace("cat", "layer");
        ev.emplace("ph", "X");
        ev.emplace("pid", 1);
        ev.emplace("tid", static_cast<std::size_t>(s.thread));
        ev.emplace("ts", 1e-3 * static_cast<double>(s.start_ns));
        ev.emplace("dur", 1e-3 * static_cast<double>(s.end_ns - s.start_ns));
        ev.emplace("args", JsonValue(std::move(args)));
        out << JsonValue(std::move(ev)).dump()
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out)
        throw std::runtime_error("failed writing " + path);
}

} // namespace perfbench
