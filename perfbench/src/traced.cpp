#include "traced.h"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "capture/chronogram.h"
#include "capture/fault_injection.h"
#include "common/error.h"
#include "common/strings.h"
#include "core/golden_cache.h"
#include "core/ndf.h"
#include "core/paper_setup.h"
#include "core/trace_cache.h"
#include "filter/cut.h"
#include "server/json.h"
#include "server/sweep_service.h"
#include "server/wire.h"
#include "signal/sampled.h"
#include "spice/transient.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using xysig::server::JsonValue;
namespace core = xysig::core;
namespace server = xysig::server;

// Share of the traced run's time per phase; the session gets the rest.
constexpr double kChainShare = 0.55;
constexpr double kSweepShare = 0.15;

// Members of one job that go through the layer chain, evenly spaced.
constexpr std::size_t kChainMembersBehavioural = 16;
constexpr std::size_t kChainMembersSpice = 4;
constexpr int kColdGoldens = 3;
constexpr int kSessionRounds = 4; // alternating spans off / on

// Probe jobs for the layers a workload does not reach, so every per-layer
// metric has a value on every workload.
constexpr const char* kSpiceProbe =
    R"({"id":"probe","job":"spice_faults","settle_periods":4})";
constexpr const char* kBehaviouralProbe =
    R"({"grid":{"count":64,"from":-20,"to":20},"id":"probe","job":"deviations"})";
constexpr std::int64_t kProbeJob = -1;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Accum {
    double total_s = 0.0;
    std::size_t count = 0;
    double units = 0.0; ///< work done, e.g. samples processed

    [[nodiscard]] double mean_s() const {
        return count == 0 ? 0.0 : total_s / static_cast<double>(count);
    }
    [[nodiscard]] double per_unit_s() const {
        return units == 0.0 ? 0.0 : total_s / units;
    }
};

/// Runs f under a span and adds its wall time and `units` to `acc`.
template <class F>
void timed(Tracer& tracer, const char* name, std::int64_t job, std::size_t parent,
           Accum& acc, double units, F&& f) {
    const std::size_t span = tracer.begin(name, job, parent);
    const Clock::time_point t0 = Clock::now();
    f();
    acc.total_s += since(t0);
    tracer.end(span);
    ++acc.count;
    acc.units += units;
}

struct ChainStats {
    Accum decode, golden_spice, golden_warm, golden_cold, sample, respond_y,
        spice_member, zoning, encode, ndf, member_behavioural, member_spice,
        result_line, transient;
    Accum zoning_by_kind[2]; ///< [is_spice]
    double transient_steps = 0.0;
    double newton_iterations = 0.0;
    double rejected_steps = 0.0;
    std::vector<std::string> problems;
    std::size_t failed_jobs = 0;
};

/// The result event the server would emit for one member, serialised.
std::string result_line(const std::string& id, std::size_t member, double ndf,
                        const std::string& label,
                        const std::optional<xysig::capture::Chronogram>& sig) {
    JsonValue::Object o;
    o.emplace("event", "result");
    o.emplace("id", id);
    o.emplace("member", member);
    o.emplace("ndf", ndf);
    o.emplace("ndf_hex", xysig::format_double_exact(ndf));
    o.emplace("label", label);
    if (sig.has_value()) {
        o.emplace("signature", server::signature_string(*sig));
        o.emplace("zone_visits", sig->zone_visits());
    }
    return JsonValue(std::move(o)).dump();
}

/// Replays one job line through the layer chain.
class ChainReplay {
public:
    explicit ChainReplay(std::size_t spp)
        : spp_(spp), pipe_(server::make_paper_pipeline(spp)) {}

    void cold_goldens(Tracer& tracer, ChainStats& st) {
        const xysig::filter::BehaviouralCut golden(core::paper_biquad());
        for (int i = 0; i < kColdGoldens; ++i) {
            core::GoldenSignatureCache::instance().clear();
            timed(tracer, "core.set_golden_cold", kProbeJob, Tracer::kNone,
                  st.golden_cold, 1.0, [&] { pipe_.set_golden(golden); });
        }
    }

    void job(Tracer& tracer, ChainStats& st, const std::string& line,
             std::int64_t job_id) {
        const Tracer::Scope job_span(tracer, "job", job_id);
        const std::size_t parent = job_span.id();
        server::WireJob wire;
        timed(tracer, "server.decode", job_id, parent, st.decode, 1.0,
              [&] { wire = server::parse_wire_job(JsonValue::parse(line)); });

        std::optional<xysig::filter::SpiceCut> spice_golden;
        if (wire.is_spice) {
            const core::SpiceObservation& obs = wire.observation;
            timed(tracer, "core.set_golden", job_id, parent, st.golden_spice, 1.0, [&] {
                spice_golden.emplace(
                    std::make_unique<xysig::spice::Netlist>(wire.nominal->clone()),
                    obs.input_source, obs.x_node, obs.y_node, obs.settle_periods);
                pipe_.set_golden(*spice_golden);
            });
        } else {
            timed(tracer, "core.set_golden", job_id, parent, st.golden_warm, 1.0, [&] {
                pipe_.set_golden(xysig::filter::BehaviouralCut(core::paper_biquad()));
            });
            // The stimulus trace: what StimulusTraceCache holds once per
            // (stimulus, spp, mode); every behavioural member reads it as x.
            timed(tracer, "signal.sample", job_id, parent, st.sample,
                  static_cast<double>(spp_), [&] {
                      xysig::SampledSignal::sample_waveform_into(
                          pipe_.stimulus(), 0.0, pipe_.stimulus().period(), spp_,
                          trace_);
                  });
        }

        const std::size_t problems_before = st.problems.size();
        const std::size_t members = wire.job.size();
        const std::size_t picks = std::min(
            members, wire.is_spice ? kChainMembersSpice : kChainMembersBehavioural);
        std::optional<xysig::spice::Netlist> netlist;
        std::optional<xysig::filter::SpiceCut> spice_cut;
        if (wire.is_spice) {
            const core::SpiceObservation& obs = wire.observation;
            netlist.emplace(wire.nominal->clone());
            spice_cut.emplace(*netlist, obs.input_source, obs.x_node, obs.y_node,
                              obs.settle_periods);
        }
        for (std::size_t k = 0; k < picks; ++k) {
            const std::size_t m = k * members / picks;
            if (wire.is_spice) {
                const xysig::capture::NetlistFault& fault = wire.faults[m];
                const xysig::capture::ScopedFaultInjection inject(*netlist, fault);
                member(tracer, st, wire, job_id, parent, m, *spice_cut,
                       fault.description());
                if (k == 0)
                    transient(tracer, st, wire, job_id, parent, *netlist);
            } else {
                const double dev = wire.deviations[m];
                const xysig::filter::Biquad nominal = core::paper_biquad();
                const xysig::filter::BehaviouralCut cut(
                    wire.parameter == core::SweptParameter::f0
                        ? nominal.with_f0_shift(dev / 100.0)
                        : nominal.with_q_shift(dev / 100.0));
                member(tracer, st, wire, job_id, parent, m, cut,
                       std::string("dev(") +
                           (wire.parameter == core::SweptParameter::f0 ? "f0," : "q,") +
                           xysig::format_double(dev) + "%)");
            }
        }
        if (st.problems.size() != problems_before)
            ++st.failed_jobs;
    }

private:
    /// One member: the layer chain, then the whole member through
    /// SignaturePipeline::evaluate; both must give the same bits.
    void member(Tracer& tracer, ChainStats& st, const server::WireJob& wire,
                std::int64_t job_id, std::size_t job_span, std::size_t m,
                const xysig::filter::Cut& cut, const std::string& label) {
        const double n = static_cast<double>(spp_);
        double chain_ndf = std::numeric_limits<double>::quiet_NaN();
        std::optional<xysig::capture::Chronogram> observed;
        {
            const Tracer::Scope chain(tracer, "core.member_chain", job_id, job_span);
            double dt = 0.0;
            bool solved = true;
            const double zoning_before = st.zoning.total_s;
            if (wire.is_spice) {
                try {
                    timed(tracer, "spice.respond", job_id, chain.id(), st.spice_member,
                          1.0, [&] { cut.respond_into(pipe_.stimulus(), spp_, xs_, ys_, dt); });
                } catch (const xysig::NumericError&) {
                    solved = false; // streams as a NaN member
                }
            } else {
                xs_ = trace_;
                timed(tracer, "filter.respond_y", job_id, chain.id(), st.respond_y, n,
                      [&] {
                          cut.respond_y_into(pipe_.stimulus(), spp_, ys_, dt,
                                             xysig::SampleMode::exact);
                      });
            }
            if (solved) {
                timed(tracer, "kernels.zoning", job_id, chain.id(), st.zoning, n, [&] {
                    pipe_.compiled_bank().codes_into(xs_, ys_, codes_,
                                                     xysig::SampleMode::exact);
                });
                Accum& by_kind = st.zoning_by_kind[wire.is_spice ? 1 : 0];
                by_kind.total_s += st.zoning.total_s - zoning_before;
                ++by_kind.count;
                timed(tracer, "capture.encode", job_id, chain.id(), st.encode, n, [&] {
                    xysig::capture::Chronogram::encode_codes(codes_, dt, events_);
                    observed.emplace(dt * static_cast<double>(xs_.size()),
                                     static_cast<unsigned>(pipe_.bank().size()),
                                     events_);
                });
                timed(tracer, "core.ndf", job_id, chain.id(), st.ndf, 1.0, [&] {
                    chain_ndf = core::ndf(*observed, pipe_.golden());
                });
            }
        }

        double member_ndf = std::numeric_limits<double>::quiet_NaN();
        timed(tracer, "core.member", job_id, job_span,
              wire.is_spice ? st.member_spice : st.member_behavioural, 1.0, [&] {
                  try {
                      member_ndf = pipe_.evaluate(cut, scratch_).ndf;
                  } catch (const xysig::NumericError&) {
                  }
              });
        if (xysig::format_double_exact(chain_ndf) != xysig::format_double_exact(member_ndf))
            st.problems.push_back("layer chain and evaluate disagree on member " +
                                  std::to_string(m) + " of " + wire.id);

        timed(tracer, "server.result_line", job_id, job_span, st.result_line, 1.0, [&] {
            line_ = result_line(wire.id, wire.member_offset + m, member_ndf, label,
                                observed);
        });
    }

    /// The SPICE transient alone, with its step and Newton counts.
    void transient(Tracer& tracer, ChainStats& st, const server::WireJob& wire,
                   std::int64_t job_id, std::size_t job_span,
                   const xysig::spice::Netlist& netlist) {
        const double period = pipe_.stimulus().period();
        xysig::spice::TransientOptions opts;
        opts.t_start = 0.0;
        opts.t_stop = static_cast<double>(wire.observation.settle_periods + 1) * period;
        opts.dt = period / static_cast<double>(spp_);
        try {
            std::optional<xysig::spice::TransientResult> tr;
            timed(tracer, "spice.run_transient", job_id, job_span, st.transient, 0.0,
                  [&] { tr.emplace(xysig::spice::run_transient(netlist, opts)); });
            st.transient.units += static_cast<double>(tr->step_count());
            st.newton_iterations += tr->total_newton_iterations;
            st.rejected_steps += tr->rejected_steps;
        } catch (const xysig::NumericError&) {
        }
    }

    std::size_t spp_;
    core::SignaturePipeline pipe_;
    core::NdfScratch scratch_;
    std::vector<double> trace_, xs_, ys_;
    std::vector<unsigned> codes_;
    std::vector<xysig::capture::CodeEvent> events_;
    std::string line_;
};

/// Line sink of the in-process session: counts results and wakes the
/// client on job_done. With spans on, each job gets a span from its
/// handle_line call to its job_done line, around a handle_line span.
class SessionSink {
public:
    explicit SessionSink(Tracer& tracer) : tracer_(tracer) {}

    void operator()(const std::string& line) {
        const bool result = line.find(R"("event":"result")") != std::string::npos;
        const bool error = line.find(R"("event":"error")") != std::string::npos;
        const bool done =
            error || line.find(R"("event":"job_done")") != std::string::npos;
        const std::lock_guard<std::mutex> lock(mutex_);
        results_ += result ? 1 : 0;
        if (error && error_.empty())
            error_ = line;
        if (done) {
            ++done_;
            cv_.notify_all();
        }
    }

    /// Sends one line and waits for its job to finish; returns its results.
    std::size_t run(server::ServerSession& session, const std::string& line,
                    std::int64_t job, bool spans) {
        Tracer& t = spans ? tracer_ : disabled_;
        std::size_t before_results = 0, before_done = 0;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            before_results = results_;
            before_done = done_;
        }
        const std::size_t job_span = t.begin("server.session_job", job);
        {
            const Tracer::Scope handle(t, "server.handle_line", job, job_span);
            session.handle_line(line);
        }
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return done_ > before_done; });
        t.end(job_span);
        if (!error_.empty())
            throw std::runtime_error("in-process session error: " + error_);
        return results_ - before_results;
    }

private:
    Tracer& tracer_;
    Tracer disabled_{false};
    std::mutex mutex_;
    std::string error_;        // guarded by mutex_
    std::condition_variable cv_;
    std::size_t results_ = 0; // guarded by mutex_
    std::size_t done_ = 0;    // guarded by mutex_
};

} // namespace

TracedRun run_traced(const Generator& gen, double seconds,
                     const std::string& span_path) {
    const WorkloadSpec& spec = gen.spec();
    const std::size_t spp = spec.samples_per_period;
    Tracer tracer(true);
    TracedRun out;
    ChainStats st;
    const bool spice_workload = spec.name == "spice_faults";

    // Phase 1: the layer chain over the workload's own jobs, plus one probe
    // job of the member kind the workload lacks.
    {
        ChainReplay chain(spp);
        chain.cold_goldens(tracer, st);
        chain.job(tracer, st, spice_workload ? kBehaviouralProbe : kSpiceProbe,
                  kProbeJob);
        out.jobs = 1;
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i == 0 || since(t0) < kChainShare * seconds; ++i) {
            chain.job(tracer, st, gen.job(i).line, static_cast<std::int64_t>(i));
            ++out.jobs;
        }
    }

    auto& goldens = core::GoldenSignatureCache::instance();
    auto& traces = core::StimulusTraceCache::instance();
    const std::size_t golden_hits0 = goldens.hits(), golden_misses0 = goldens.misses();
    const std::size_t trace_hits0 = traces.hits(), trace_misses0 = traces.misses();

    // Phase 2: SweepService::run in-process, no scheduler, no wire.
    std::size_t next = 0;
    {
        server::SweepServiceOptions sopts;
        sopts.workers = kServerWorkers;
        server::SweepService service(server::make_paper_pipeline(spp), sopts);
        for (const JobSpec& w : gen.warmup())
            (void)service.run(server::parse_wire_job(JsonValue::parse(w.line)).job,
                              [](const server::SweepResult&) {});
        std::size_t members = 0;
        const Clock::time_point t0 = Clock::now();
        double busy = 0.0;
        do {
            const auto index = static_cast<std::int64_t>(next);
            const server::WireJob wire =
                server::parse_wire_job(JsonValue::parse(gen.job(next++).line));
            const Clock::time_point j0 = Clock::now();
            const Tracer::Scope span(tracer, "server.sweep_run", index);
            members += service.run(wire.job, [](const server::SweepResult&) {})
                           .members_done;
            busy += since(j0);
        } while (since(t0) < kSweepShare * seconds);
        out.metrics["server.sweep_members_per_s"] = static_cast<double>(members) / busy;
    }

    // Phase 3: ServerSession::handle_line with an in-memory sink, closed
    // loop, rounds alternating spans off and on.
    {
        server::SweepServiceOptions sopts;
        sopts.workers = kServerWorkers;
        server::SweepService service(server::make_paper_pipeline(spp), sopts);
        SessionSink sink(tracer);
        server::ServerSession session(
            service, [&sink](const std::string& line) { sink(line); });
        for (const JobSpec& w : gen.warmup())
            sink.run(session, w.line, kProbeJob, false);
        const double round_s = (1.0 - kChainShare - kSweepShare) * seconds / kSessionRounds;
        double members[2] = {0.0, 0.0};
        double wall[2] = {0.0, 0.0};
        for (int round = 0; round < kSessionRounds; ++round) {
            const bool spans = round % 2 == 1;
            const Clock::time_point t0 = Clock::now();
            do {
                const auto index = static_cast<std::int64_t>(next);
                members[spans] += static_cast<double>(
                    sink.run(session, gen.job(next++).line, index, spans));
            } while (since(t0) < round_s);
            wall[spans] += since(t0);
        }
        const double off = members[0] / wall[0];
        const double on = members[1] / wall[1];
        out.metrics["server.session_members_per_s"] = off;
        out.metrics["bench.trace_overhead_frac"] = 1.0 - on / off;
    }

    const auto ratio = [](std::size_t hits, std::size_t misses) {
        return hits + misses == 0 ? 0.0
                                  : static_cast<double>(hits) /
                                        static_cast<double>(hits + misses);
    };
    out.metrics["core.golden_cache_hit_ratio"] =
        ratio(goldens.hits() - golden_hits0, goldens.misses() - golden_misses0);
    out.metrics["core.trace_cache_hit_ratio"] =
        ratio(traces.hits() - trace_hits0, traces.misses() - trace_misses0);

    const double ns = 1e9, us = 1e6, ms = 1e3;
    auto& m = out.metrics;
    m["signal.sample_ns_per_sample"] = ns * st.sample.per_unit_s();
    m["filter.respond_y_ns_per_sample"] = ns * st.respond_y.per_unit_s();
    m["spice.member_ms"] = ms * st.spice_member.mean_s();
    m["spice.step_us"] = us * st.transient.per_unit_s();
    m["spice.newton_iters_per_step"] =
        st.transient.units == 0.0 ? 0.0 : st.newton_iterations / st.transient.units;
    m["spice.rejected_steps_per_member"] =
        st.transient.count == 0
            ? 0.0
            : st.rejected_steps / static_cast<double>(st.transient.count);
    m["kernels.zoning_ns_per_sample"] = ns * st.zoning.per_unit_s();
    m["capture.encode_ns_per_sample"] = ns * st.encode.per_unit_s();
    m["core.ndf_us"] = us * st.ndf.mean_s();
    const Accum& member = spice_workload ? st.member_spice : st.member_behavioural;
    m["core.member_us"] = us * member.mean_s();
    m["core.golden_spice_ms"] = ms * st.golden_spice.mean_s();
    m["core.golden_behavioural_ms"] = ms * st.golden_cold.mean_s();
    m["server.decode_us"] = us * st.decode.mean_s();
    m["server.result_line_us"] = us * st.result_line.mean_s();
    // Zoning's share of the workload's own member time.
    const Accum& zoning = st.zoning_by_kind[spice_workload ? 1 : 0];
    m["share.zoning_of_member"] =
        member.mean_s() == 0.0 ? 0.0 : zoning.mean_s() / member.mean_s();
    out.golden_per_job_s =
        spice_workload ? st.golden_spice.mean_s() : st.golden_warm.mean_s();

    out.problems = std::move(st.problems);
    out.failed_jobs = st.failed_jobs;
    out.layers = tracer.layer_times();
    out.spans = tracer.size();
    tracer.write_chrome_json(span_path);
    return out;
}

} // namespace perfbench
