// sweep_server — newline-delimited-JSON front-end over server::SweepService
// through the server::JobScheduler queue.
//
// Reads one JSON request (job or command) per stdin line, streams NDJSON
// events (ready, queued, job_start, result, progress, job_done, verify,
// stats, error) to stdout, and keeps the service — worker pool, pipeline,
// golden-signature cache, whole-job result cache — alive across jobs.
// docs/PROTOCOL.md is the normative spec of the wire format; the protocol
// logic itself lives in src/server/wire.{h,cpp} (ServerSession), shared
// with the fan-out driver's loopback transport, so this file is only
// plumbing.
//
// Since protocol version 2, handle_line() submits jobs asynchronously —
// a job is acknowledged with a `queued` event and its results are written
// by the scheduler's dispatcher as the service produces them (a cache hit
// streams at once, on this thread) — so this main loop is a
// single-threaded getline: cancels take effect on receipt (submission
// never blocks the reader for the duration of a job), multiple in-flight
// jobs interleave on one connection, and backpressure comes from the
// scheduler's bounded queue + the OS pipe. No thread is started per job.
// {"cmd":"quit"} drains every in-flight job before the loop exits, as
// does EOF.
//
// With --listen=PORT the same protocol is served over TCP instead of
// stdin/stdout: the process binds the port (0 = ephemeral), announces
// `{"event":"listening","address":...,"port":N}` on stdout, and serves
// every accepted connection with its own session — by default each
// connection also gets its own worker pool, so one listening host can
// serve all partitions of a `sweep_fanout --connect` run concurrently.
//
// Flags: --workers=N --spp=N (pipeline samples per period)
//        --queue=N (max queued jobs before submit blocks)
//        --job-cache=N (whole-job result cache entries; 0 disables)
//        --heartbeat=SECONDS (emit v3 heartbeat events; 0 = off)
//        --listen=PORT (serve TCP connections instead of stdin; 0 picks
//        an ephemeral port, announced on stdout)
//        --bind=ADDR (listen address, default 0.0.0.0)
//        --share-service (one worker pool shared by every connection)
//        --check (schema-validate stdin lines, exit non-zero on the first
//        invalid one)
// An unknown flag or an out-of-range value exits 2 before anything runs.
// The service works each job's shard size out from its member count, the
// worker count and the universe kind; a job line may set its own
// `shard_size`.

#include <charconv>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

#include "server/json.h"
#include "server/tcp_transport.h"
#include "server/wire.h"

namespace {

using namespace xysig;

/// --check: one line in, one verdict out. Exit code 1 on the first
/// schema violation, with the offending line number on stderr.
int run_check_mode() {
    std::string line;
    std::size_t line_number = 0;
    std::size_t checked = 0;
    while (std::getline(std::cin, line)) {
        ++line_number;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        try {
            server::check_protocol_line(line);
            ++checked;
        } catch (const std::exception& e) {
            std::cerr << "sweep_server --check: line " << line_number << ": "
                      << e.what() << "\n";
            return 1;
        }
    }
    std::cout << "sweep_server --check: " << checked << " lines ok\n";
    return 0;
}

/// A command-line value main() rejects with exit code 2.
struct BadFlag : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// The value of a numeric `--name=text` flag: the whole text must parse as
/// a T in [lo, hi]. Unsigned flags reject a sign, so "-1" cannot wrap.
template <typename T>
T flag_value(std::string_view name, std::string_view text, T lo, T hi) {
    T value{};
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || stop != end ||
        !(value >= lo && value <= hi)) {
        std::ostringstream msg;
        msg << "invalid value for " << name << ": '" << text
            << "' (want a number in [" << lo << ", " << hi << "])";
        throw BadFlag(msg.str());
    }
    return value;
}

} // namespace

int main(int argc, char** argv) {
    unsigned workers = 0;
    std::size_t samples_per_period = 512;
    server::SessionOptions session_opts;
    bool check = false;
    bool listen = false;
    unsigned short listen_port = 0;
    std::string bind_address = "0.0.0.0";
    bool share_service = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string_view arg = argv[i];
            const std::size_t eq = arg.find('=');
            const std::string_view flag = arg.substr(0, eq);
            const std::string_view text =
                eq == std::string_view::npos ? std::string_view() : arg.substr(eq + 1);
            if (flag == "--workers")
                workers = flag_value(flag, text, 0u, 1024u);
            else if (flag == "--spp")
                samples_per_period =
                    flag_value<std::size_t>(flag, text, 64, 1u << 20);
            else if (flag == "--queue")
                session_opts.max_pending =
                    flag_value<std::size_t>(flag, text, 1, 1u << 20);
            else if (flag == "--job-cache")
                session_opts.cache_capacity =
                    flag_value<std::size_t>(flag, text, 0, 1u << 20);
            else if (flag == "--heartbeat")
                session_opts.heartbeat_seconds =
                    flag_value(flag, text, 0.0, 86400.0);
            else if (flag == "--listen") {
                listen = true;
                listen_port = flag_value<unsigned short>(flag, text, 0, 65535);
            } else if (flag == "--bind" && eq != std::string_view::npos)
                bind_address = std::string(text);
            else if (arg == "--share-service")
                share_service = true;
            else if (arg == "--check")
                check = true;
            else
                throw BadFlag("unknown flag: " + std::string(arg));
        }
    } catch (const BadFlag& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    if (check)
        return run_check_mode();

    if (listen) {
        server::TcpListener::Options lopts;
        lopts.bind_address = bind_address;
        lopts.port = listen_port;
        lopts.workers = workers;
        lopts.samples_per_period = samples_per_period;
        lopts.session = session_opts;
        lopts.share_service = share_service;
        try {
            server::TcpListener listener(lopts);
            {
                // The one stdout line of listen mode: tells the launcher
                // (CI script, test harness) which port an ephemeral bind
                // actually got. The NDJSON conversation itself happens on
                // the accepted sockets.
                server::JsonValue::Object o;
                o.emplace("event", "listening");
                o.emplace("address", bind_address);
                o.emplace("port", static_cast<std::size_t>(listener.port()));
                std::cout << server::JsonValue(std::move(o)).dump() << "\n"
                          << std::flush;
            }
            listener.run(); // until the process is signalled
        } catch (const std::exception& e) {
            std::cerr << "sweep_server --listen: " << e.what() << "\n";
            return 1;
        }
        return 0;
    }

    server::SweepServiceOptions sopts;
    sopts.workers = workers;
    server::SweepService service(server::make_paper_pipeline(samples_per_period),
                                 sopts);
    server::ServerSession session(
        service,
        [](const std::string& line) { std::cout << line << "\n" << std::flush; },
        session_opts);
    session.emit_ready(samples_per_period);

    std::string line;
    while (std::getline(std::cin, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        if (!session.handle_line(line))
            break; // quit (already drained)
    }
    session.drain(); // EOF path: flush in-flight jobs before exiting
    return session.all_verified() ? 0 : 1;
}
