// Cross-commit signature lock: the exact NDF bits and signature strings of
// three paper universes, pinned in tests/data/signature_lock.txt.
//
// Every other identity gate compares two code paths inside one build; this
// one compares the build against bits recorded by an earlier one, the
// MISR-style regression compaction of BIST applied to our own results.
// Each job line is replayed through an in-process ServerSession at 1024
// samples per period, in exact and fast_math mode, and every job runs
// twice, so the second pass is answered by the whole-job cache (and the
// golden cache) and must replay the same bits.
//
// On a mismatch the test writes the bits it got to
// signature_lock.actual.txt next to the test binary. Accepting new bits is
// a deliberate act: copy that file over tests/data/signature_lock.txt and
// say why in CHANGES.md. There is no update flag.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/annotated_mutex.h"
#include "server/json.h"
#include "server/sweep_service.h"
#include "server/wire.h"

namespace xysig::server {
namespace {

constexpr std::size_t kSamplesPerPeriod = 1024;

struct Universe {
    const char* name;
    const char* fields; ///< job-line fields after "job"
};

constexpr Universe kUniverses[] = {
    {"f0",
     R"("job":"deviations","parameter":"f0","grid":{"from":-20,"to":20,"count":41})"},
    {"q",
     R"("job":"deviations","parameter":"q","grid":{"from":-20,"to":20,"count":41})"},
    {"spice", R"("job":"spice_faults")"},
};

struct Mode {
    const char* name;
    const char* fields; ///< extra job-line fields selecting the mode
};

constexpr Mode kModes[] = {{"exact", ""}, {"fast", R"(,"fast_math":true)"}};

std::string job_id(const Universe& u, const Mode& m, int pass) {
    return std::string(u.name) + "/" + m.name + "/" + std::to_string(pass);
}

/// 64-bit FNV-1a over the lock lines of one (universe, mode): the one-line
/// digest the test prints, so two logs can be compared at a glance.
std::uint64_t fnv1a(const std::vector<std::string>& lines) {
    std::uint64_t h = 14695981039346656037ull;
    for (const std::string& line : lines) {
        for (const char c : line + "\n") {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
    }
    return h;
}

std::string read_lock_file(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(SignatureLock, UniversesReplayTheLockedBitsInBothModes) {
    SweepService service(make_paper_pipeline(kSamplesPerPeriod),
                         {.workers = 2});
    Mutex lines_mutex;
    std::vector<std::string> events;
    {
        ServerSession session(service, [&](const std::string& line) {
            MutexLock lock(lines_mutex);
            events.push_back(line);
        });
        for (int pass = 1; pass <= 2; ++pass) {
            for (const Universe& u : kUniverses) {
                for (const Mode& m : kModes) {
                    ASSERT_TRUE(session.handle_line(
                        std::string(R"({"id":")") + job_id(u, m, pass) +
                        "\"," + u.fields + m.fields + "}"));
                }
            }
            session.drain();
        }
    }

    // Lock lines per job id: "<universe> <mode> <member> <ndf_hex> <sig>",
    // with "-" for the signature of a member that has none (a NaN member).
    std::map<std::string, std::vector<std::string>> by_job;
    std::map<std::string, bool> cached;
    for (const std::string& line : events) {
        const JsonValue v = JsonValue::parse(line);
        const std::string event = v.string_or("event", "");
        const std::string id = v.string_or("id", "");
        ASSERT_NE(event, "error") << line;
        if (event == "job_done")
            cached[id] = v.bool_or("cached", false);
        if (event != "result")
            continue;
        const std::string universe = id.substr(0, id.find('/'));
        const std::string mode =
            id.substr(universe.size() + 1, id.rfind('/') - universe.size() - 1);
        by_job[id].push_back(
            universe + " " + mode + " " +
            std::to_string(static_cast<std::size_t>(v.at("member").as_number())) +
            " " + v.at("ndf_hex").as_string() + " " +
            v.string_or("signature", "-")); // NaN members carry none
    }

    std::string actual =
        "# Signature lock: tests/integration/test_signature_lock.cpp.\n"
        "# <universe> <mode> <member> <ndf_hex> <signature or ->, spp 1024.\n";
    for (const Universe& u : kUniverses) {
        for (const Mode& m : kModes) {
            const std::vector<std::string>& first = by_job[job_id(u, m, 1)];
            const std::vector<std::string>& second = by_job[job_id(u, m, 2)];
            EXPECT_FALSE(first.empty()) << job_id(u, m, 1);
            EXPECT_EQ(first, second) << "the cached pass changed the bits of "
                                     << u.name << "/" << m.name;
            EXPECT_FALSE(cached[job_id(u, m, 1)]) << job_id(u, m, 1);
            EXPECT_TRUE(cached[job_id(u, m, 2)])
                << job_id(u, m, 2) << " was not served by the job cache";
            std::printf("signature-lock %s/%s: %zu members, fnv1a %016llx\n",
                        u.name, m.name, first.size(),
                        static_cast<unsigned long long>(fnv1a(first)));
            for (const std::string& line : first)
                actual += line + "\n";
        }
    }

    const std::string lock_path =
        std::string(XYSIG_TEST_DATA_DIR) + "/signature_lock.txt";
    const std::string expected = read_lock_file(lock_path);
    if (actual != expected) {
        const std::string actual_path =
            std::string(XYSIG_TEST_OUTPUT_DIR) + "/signature_lock.actual.txt";
        std::ofstream(actual_path) << actual;
        std::istringstream got(actual);
        std::istringstream want(expected);
        std::string got_line;
        std::string want_line;
        std::size_t line_number = 0;
        while (true) {
            got_line.clear();
            want_line.clear();
            const bool more_got = static_cast<bool>(std::getline(got, got_line));
            const bool more_want =
                static_cast<bool>(std::getline(want, want_line));
            ++line_number;
            if ((!more_got && !more_want) || got_line != want_line)
                break;
        }
        ADD_FAILURE() << "results differ from " << lock_path << " at line "
                      << line_number << "\n  lock:   " << want_line.substr(0, 160)
                      << "\n  actual: " << got_line.substr(0, 160)
                      << "\nThe bits this build produced are in "
                      << actual_path
                      << ". To accept them, copy that file over the lock "
                         "and record why in CHANGES.md.";
    }
}

} // namespace
} // namespace xysig::server
