// Per-stage throughput of the compiled signature kernels against the
// virtual baseline: stimulus sampling (tone-table kernel vs per-sample
// Waveform::value), zoning (CompiledMonitorBank::codes_into vs
// MonitorBank::code, from scratch and fed with precomputed x-leg lanes),
// the fused zoning -> run-length-event path, the
// end-to-end NDF evaluation (the SignaturePipeline scratch path against
// its virtual reference, chronogram() zoning through MonitorBank::code,
// serial and at N batch threads), and the
// opt-in fast_math layer: the vecmath sin kernel vs libm, fast multitone
// sampling vs the exact kernel, the stimulus trace cache vs resampling,
// and the fused NDF path with fast_math on.
//
// Every comparison carries a gate — bit identity for the exact kernels,
// the documented 2-ULP bound for the vecmath rows, a single-sampling
// probe for the trace cache — and the process exits nonzero if any gate
// fails. The numbers are emitted both as a table and as machine-readable
// JSON (--json=PATH, default bench_kernels.json; CI uploads it as
// BENCH_kernels.json) so the perf trajectory can accumulate across
// commits. `--smoke` runs a reduced-size gate check + timing pass and
// skips the google-benchmark timers (the CI mode).
//
// The workload is the paper-style 8-monitor multitone setup: the six
// Table I MOS comparators plus two straight-line monitors, driven by the
// two-tone Fig. 1 stimulus through the reference Biquad.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "capture/chronogram.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/timing.h"
#include "core/batch_ndf.h"
#include "core/paper_setup.h"
#include "core/trace_cache.h"
#include "kernels/compiled_monitor_bank.h"
#include "kernels/compiled_waveform.h"
#include "kernels/vecmath.h"
#include "monitor/table1.h"
#include "signal/sample_mode.h"

namespace {

using namespace xysig;

/// Table I bank + two linear monitors = the 8-monitor benchmark bank.
monitor::MonitorBank make_bench_bank() {
    monitor::MonitorBank bank = monitor::build_table1_bank();
    bank.add(std::make_unique<monitor::LinearBoundary>(1.0, 1.0, -1.1));
    bank.add(std::make_unique<monitor::LinearBoundary>(-1.0, 1.0, -0.1));
    return bank;
}

/// Items/second of fn (which processes items_per_call items), repeated
/// until min_seconds of wall clock.
template <typename F>
double rate_of(F&& fn, double items_per_call, double min_seconds) {
    fn(); // warm-up (also populates any lazily sized buffers)
    int reps = 0;
    const auto t0 = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
        fn();
        ++reps;
        elapsed = seconds_since(t0);
    } while (elapsed < min_seconds);
    return items_per_call * static_cast<double>(reps) / elapsed;
}

struct StageResult {
    std::string name;
    std::string unit;
    unsigned threads = 1;
    double virtual_rate = 0.0;  ///< baseline (virtual / exact / uncached)
    double compiled_rate = 0.0; ///< candidate (compiled / fast / cached)
    /// What correctness check gates this row ("bit" = bit identity; the
    /// fast_math rows carry their documented tolerance instead).
    std::string gate = "bit";
    bool passed = false;
    /// Worst observed gate measure (ULP distance for the ULP rows, NDF
    /// delta for the fused row, 0 for bit rows).
    double measure = 0.0;

    [[nodiscard]] double speedup() const { return compiled_rate / virtual_rate; }
    [[nodiscard]] bool bit_gate() const { return gate == "bit"; }
};

bool events_equal(const std::vector<capture::CodeEvent>& a,
                  const std::vector<capture::CodeEvent>& b) {
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].t != b[i].t || a[i].code != b[i].code)
            return false;
    return true;
}

void write_json(const std::string& path, bool smoke, std::size_t samples,
                std::size_t universe, const monitor::MonitorBank& bank,
                const kernels::CompiledMonitorBank& compiled,
                const std::vector<StageResult>& stages, bool all_identical,
                bool all_passed) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "bench_kernels: cannot write " << path << "\n";
        return;
    }
    out << "{\n";
    out << "  \"bench\": \"bench_kernels\",\n";
    out << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
    out << "  \"setup\": {\n";
    out << "    \"monitors\": " << bank.size() << ",\n";
    out << "    \"compiled_monitors\": " << compiled.compiled_count() << ",\n";
    out << "    \"fallback_monitors\": " << compiled.fallback_count() << ",\n";
    out << "    \"samples_per_period\": " << samples << ",\n";
    out << "    \"universe_cuts\": " << universe << "\n";
    out << "  },\n";
    out << "  \"stages\": [\n";
    for (std::size_t i = 0; i < stages.size(); ++i) {
        const StageResult& s = stages[i];
        out << "    {\"name\": \"" << s.name << "\", \"unit\": \"" << s.unit
            << "\", \"threads\": " << s.threads << ", \"virtual\": "
            << format_double(s.virtual_rate, 4) << ", \"compiled\": "
            << format_double(s.compiled_rate, 4) << ", \"speedup\": "
            << format_double(s.speedup(), 3) << ", \"gate\": \"" << s.gate
            << "\", \"measure\": " << format_double(s.measure, 4)
            << ", \"passed\": " << (s.passed ? "true" : "false");
        // `bit_identical` is the pre-fast-math field name the trajectory
        // tooling already plots; keep it on the rows where it is true to
        // its name (bit gates) so old readers never see a tolerance row
        // labelled bit-identical.
        if (s.bit_gate())
            out << ", \"bit_identical\": " << (s.passed ? "true" : "false");
        out << "}" << (i + 1 < stages.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"bit_identical\": " << (all_identical ? "true" : "false")
        << ",\n";
    out << "  \"gates_passed\": " << (all_passed ? "true" : "false") << "\n";
    out << "}\n";
    std::cout << "JSON written to " << path << "\n";
}

[[nodiscard]] bool run_report(std::ostream& out, bool smoke,
                              const std::string& json_path) {
    const std::size_t samples = smoke ? 2048 : 8192;
    const std::size_t universe_size = smoke ? 12 : 48;
    const double min_seconds = smoke ? 0.05 : 0.5;

    out << "=== [kernels] compiled vs virtual hot path, "
        << (smoke ? "smoke" : "full") << " mode ===\n";

    const monitor::MonitorBank bank = make_bench_bank();
    const auto compiled_bank = kernels::CompiledMonitorBank::compile(bank);
    const MultitoneWaveform stimulus = core::paper_stimulus();
    out << "bank: " << bank.size() << " monitors ("
        << compiled_bank.compiled_count() << " compiled, "
        << compiled_bank.fallback_count() << " fallback), stimulus: "
        << stimulus.tones().size() << " tones, " << samples
        << " samples/period, " << universe_size << " CUTs\n";

    std::vector<StageResult> stages;

    // --- Stage 1: stimulus sampling ------------------------------------
    {
        const double period = stimulus.period();
        const double dt = period / static_cast<double>(samples);
        std::vector<double> virt(samples);
        std::vector<double> kern;
        const auto cw = kernels::CompiledWaveform::compile(stimulus);
        const Waveform& w = stimulus; // force the virtual dispatch baseline
        const double v_rate = rate_of(
            [&] {
                for (std::size_t i = 0; i < samples; ++i)
                    virt[i] = w.value(static_cast<double>(i) * dt);
                benchmark::DoNotOptimize(virt.data());
            },
            static_cast<double>(samples), min_seconds);
        const double k_rate = rate_of(
            [&] {
                cw->sample_into(0.0, period, samples, kern);
                benchmark::DoNotOptimize(kern.data());
            },
            static_cast<double>(samples), min_seconds);
        stages.push_back({.name = "sampling",
                          .unit = "samples/s",
                          .virtual_rate = v_rate,
                          .compiled_rate = k_rate,
                          .passed = virt == kern});
    }

    // --- Trace shared by the zoning / encode stages --------------------
    const filter::BehaviouralCut golden_cut(core::paper_biquad());
    std::vector<double> xs;
    std::vector<double> ys;
    double trace_dt = 0.0;
    golden_cut.respond_into(stimulus, samples, xs, ys, trace_dt);

    // --- Stage 2: zoning (per-sample code) ------------------------------
    {
        std::vector<unsigned> virt(samples);
        std::vector<unsigned> kern;
        const double v_rate = rate_of(
            [&] {
                for (std::size_t i = 0; i < samples; ++i)
                    virt[i] = bank.code(xs[i], ys[i]);
                benchmark::DoNotOptimize(virt.data());
            },
            static_cast<double>(samples), min_seconds);
        const double k_rate = rate_of(
            [&] {
                compiled_bank.codes_into(xs, ys, kern);
                benchmark::DoNotOptimize(kern.data());
            },
            static_cast<double>(samples), min_seconds);
        stages.push_back({.name = "zoning",
                          .unit = "samples/s",
                          .virtual_rate = v_rate,
                          .compiled_rate = k_rate,
                          .passed = virt == kern});

        // The same codes fed from x-leg lanes computed once for the trace,
        // as every member whose x is the stimulus zones: only the y-driven
        // legs are evaluated per call.
        const std::vector<double> lanes =
            compiled_bank.x_leg_lanes(xs, SampleMode::exact);
        std::vector<unsigned> fed;
        const double f_rate = rate_of(
            [&] {
                compiled_bank.codes_into(xs, ys, fed, SampleMode::exact, lanes);
                benchmark::DoNotOptimize(fed.data());
            },
            static_cast<double>(samples), min_seconds);
        stages.push_back({.name = "zoning, x-leg lanes",
                          .unit = "samples/s",
                          .virtual_rate = v_rate,
                          .compiled_rate = f_rate,
                          .passed = virt == fed});
    }

    // --- Stage 3: fused zoning + run-length events ----------------------
    {
        std::vector<capture::CodeEvent> virt;
        std::vector<capture::CodeEvent> kern;
        std::vector<unsigned> codes;
        const double v_rate = rate_of(
            [&] {
                capture::Chronogram::encode_events(xs, ys, trace_dt, bank, virt);
                benchmark::DoNotOptimize(virt.data());
            },
            static_cast<double>(samples), min_seconds);
        const double k_rate = rate_of(
            [&] {
                compiled_bank.codes_into(xs, ys, codes);
                capture::Chronogram::encode_codes(codes, trace_dt, kern);
                benchmark::DoNotOptimize(kern.data());
            },
            static_cast<double>(samples), min_seconds);
        stages.push_back({.name = "zoning+events",
                          .unit = "samples/s",
                          .virtual_rate = v_rate,
                          .compiled_rate = k_rate,
                          .passed = events_equal(virt, kern)});
    }

    // --- Stage 4: fused end-to-end NDF (serial, then N threads) ---------
    {
        core::PipelineOptions opts;
        opts.samples_per_period = samples;
        core::SignaturePipeline pipe(make_bench_bank(), stimulus, opts);
        pipe.set_golden(golden_cut);
        const capture::Chronogram virt_golden = pipe.chronogram(golden_cut);

        std::vector<filter::BehaviouralCut> universe;
        universe.reserve(universe_size);
        for (std::size_t i = 0; i < universe_size; ++i) {
            const double half = static_cast<double>(universe_size) / 2.0;
            const double dev = 0.2 * (static_cast<double>(i) - half) / half;
            universe.emplace_back(core::paper_biquad().with_f0_shift(dev));
        }
        std::vector<const filter::Cut*> raw;
        for (const auto& c : universe)
            raw.push_back(&c);

        const auto virtual_ndf = [&](std::size_t i) {
            return core::ndf(pipe.chronogram(*raw[i]), virt_golden);
        };
        std::vector<double> ndf_virt(raw.size());
        std::vector<double> ndf_kern(raw.size());
        const double v_rate = rate_of(
            [&] {
                for (std::size_t i = 0; i < raw.size(); ++i)
                    ndf_virt[i] = virtual_ndf(i);
            },
            static_cast<double>(universe_size), min_seconds);
        const double k_rate = rate_of(
            [&] {
                core::NdfScratch scratch;
                for (std::size_t i = 0; i < raw.size(); ++i)
                    ndf_kern[i] = pipe.ndf_of(*raw[i], scratch);
            },
            static_cast<double>(universe_size), min_seconds);
        stages.push_back({.name = "fused ndf",
                          .unit = "cuts/s",
                          .virtual_rate = v_rate,
                          .compiled_rate = k_rate,
                          .passed = ndf_virt == ndf_kern});

        // Batch engine at N threads on top of the compiled kernels: thread
        // scaling multiplies the single-core kernel win.
        const unsigned n_threads = default_thread_count();
        const core::BatchNdfEvaluator batch_kern(pipe, {.threads = n_threads});
        std::vector<double> batch_v(raw.size());
        std::vector<double> batch_k;
        const double bv_rate = rate_of(
            [&] {
                parallel_for(
                    0, raw.size(),
                    [&](std::size_t i) { batch_v[i] = virtual_ndf(i); },
                    n_threads);
            },
            static_cast<double>(universe_size), min_seconds);
        const double bk_rate = rate_of(
            [&] { batch_k = batch_kern.evaluate(raw); },
            static_cast<double>(universe_size), min_seconds);
        stages.push_back({.name = "fused ndf",
                          .unit = "cuts/s",
                          .threads = n_threads,
                          .virtual_rate = bv_rate,
                          .compiled_rate = bk_rate,
                          .passed = batch_v == ndf_virt && batch_k == ndf_virt});
    }

    // --- Stage 5: vecmath sin kernel vs libm ----------------------------
    // The polynomial kernel's throughput win over libm, gated on the
    // documented accuracy contract: every lane within 2 ULP of std::sin.
    {
        Rng rng(0x5eedbeefULL);
        std::vector<double> args(samples);
        for (double& a : args)
            a = rng.uniform(-2000.0, 2000.0);
        std::vector<double> libm(samples);
        std::vector<double> fast(samples);
        const double v_rate = rate_of(
            [&] {
                for (std::size_t i = 0; i < samples; ++i)
                    libm[i] = std::sin(args[i]);
                benchmark::DoNotOptimize(libm.data());
            },
            static_cast<double>(samples), min_seconds);
        const double k_rate = rate_of(
            [&] {
                kernels::vecmath::sin_batch(args.data(), fast.data(), samples);
                benchmark::DoNotOptimize(fast.data());
            },
            static_cast<double>(samples), min_seconds);
        std::uint64_t worst = 0;
        for (std::size_t i = 0; i < samples; ++i)
            worst = std::max(worst,
                             kernels::vecmath::ulp_distance(libm[i], fast[i]));
        stages.push_back({.name = "sin (vecmath)",
                          .unit = "sines/s",
                          .virtual_rate = v_rate,
                          .compiled_rate = k_rate,
                          .gate = "ulp<=2",
                          .passed = worst <= 2,
                          .measure = static_cast<double>(worst)});
    }

    // --- Stage 6: fast_math multitone sampling vs the exact kernel ------
    // Per-sample error budget: each tone's sine is within 2 ULP, so the
    // summed sample stays within 2*tones ULP of full scale.
    {
        const double period = stimulus.period();
        const auto cw = kernels::CompiledWaveform::compile(stimulus);
        std::vector<double> exact;
        std::vector<double> fast;
        const double v_rate = rate_of(
            [&] {
                cw->sample_into(0.0, period, samples, exact);
                benchmark::DoNotOptimize(exact.data());
            },
            static_cast<double>(samples), min_seconds);
        const double k_rate = rate_of(
            [&] {
                cw->sample_into(0.0, period, samples, fast,
                                SampleMode::fast_math);
                benchmark::DoNotOptimize(fast.data());
            },
            static_cast<double>(samples), min_seconds);
        const double full_scale = stimulus.max_abs_excursion();
        const double ulp_fs = kernels::vecmath::ulp_of(full_scale);
        const double tol =
            2.0 * static_cast<double>(stimulus.tones().size()) * ulp_fs;
        double worst = 0.0;
        for (std::size_t i = 0; i < samples; ++i)
            worst = std::max(worst, std::abs(exact[i] - fast[i]));
        stages.push_back({.name = "sampling fast_math",
                          .unit = "samples/s",
                          .virtual_rate = v_rate,
                          .compiled_rate = k_rate,
                          .gate = "abs<=2*tones*ulp(fs)",
                          .passed = worst <= tol,
                          .measure = ulp_fs > 0.0 ? worst / ulp_fs : 0.0});
    }

    // --- Stage 6b: fast_math zoning vs the exact compiled pass ----------
    // The EKV softplus pairs batched through vecmath. Codes may differ
    // from exact only for samples whose comparator current sits within
    // the softplus tolerance of zero — a handful of boundary-adjacent
    // samples at most.
    {
        std::vector<unsigned> exact_codes;
        std::vector<unsigned> fast_codes;
        const double v_rate = rate_of(
            [&] {
                compiled_bank.codes_into(xs, ys, exact_codes);
                benchmark::DoNotOptimize(exact_codes.data());
            },
            static_cast<double>(samples), min_seconds);
        const double k_rate = rate_of(
            [&] {
                compiled_bank.codes_into(xs, ys, fast_codes,
                                         SampleMode::fast_math);
                benchmark::DoNotOptimize(fast_codes.data());
            },
            static_cast<double>(samples), min_seconds);
        std::size_t flips = 0;
        for (std::size_t i = 0; i < samples; ++i)
            flips += exact_codes[i] != fast_codes[i] ? 1u : 0u;
        stages.push_back({.name = "zoning fast_math",
                          .unit = "samples/s",
                          .virtual_rate = v_rate,
                          .compiled_rate = k_rate,
                          .gate = "flips<=16",
                          .passed = flips <= 16,
                          .measure = static_cast<double>(flips)});
    }

    // --- Stage 7: stimulus trace cache vs resampling --------------------
    // A cache hit must replay the exact sampling bit for bit; the win is
    // the sine work it skips.
    {
        const double period = stimulus.period();
        const auto cw = kernels::CompiledWaveform::compile(stimulus);
        auto& cache = core::StimulusTraceCache::instance();
        const std::string key =
            core::stimulus_trace_key(stimulus, samples, SampleMode::exact);
        std::vector<double> fresh;
        std::vector<double> cached(samples);
        const double v_rate = rate_of(
            [&] {
                cw->sample_into(0.0, period, samples, fresh);
                benchmark::DoNotOptimize(fresh.data());
            },
            static_cast<double>(samples), min_seconds);
        const double k_rate = rate_of(
            [&] {
                const auto trace = cache.find_or_compute(key, [&] {
                    std::vector<double> t;
                    cw->sample_into(0.0, period, samples, t);
                    return t;
                });
                std::copy(trace->begin(), trace->end(), cached.begin());
                benchmark::DoNotOptimize(cached.data());
            },
            static_cast<double>(samples), min_seconds);
        stages.push_back({.name = "trace fill (cached)",
                          .unit = "samples/s",
                          .virtual_rate = v_rate,
                          .compiled_rate = k_rate,
                          .passed = fresh == cached});
    }

    // --- Stage 8: fused NDF with fast_math (serial) ---------------------
    // The tentpole number: exact pipeline vs fast_math pipeline over the
    // same behavioural universe. Gated on (a) the NDF staying within a
    // small code-flip budget of the exact result — a 2-ULP sample
    // perturbation can only flip zone codes for samples sitting on a
    // boundary — and (b) the trace cache proving the whole universe cost
    // at most one stimulus sampling (the fast-mode miss; the exact-mode
    // trace is already resident from stage 4).
    {
        core::PipelineOptions exact_opts;
        exact_opts.samples_per_period = samples;
        core::PipelineOptions fast_opts = exact_opts;
        fast_opts.fast_math = true;
        const std::size_t misses_before =
            core::StimulusTraceCache::instance().misses();
        core::SignaturePipeline exact_pipe(make_bench_bank(), stimulus,
                                           exact_opts);
        core::SignaturePipeline fast_pipe(make_bench_bank(), stimulus,
                                          fast_opts);
        exact_pipe.set_golden(golden_cut);
        fast_pipe.set_golden(golden_cut);

        std::vector<filter::BehaviouralCut> universe;
        universe.reserve(universe_size);
        for (std::size_t i = 0; i < universe_size; ++i) {
            const double half = static_cast<double>(universe_size) / 2.0;
            const double dev = 0.2 * (static_cast<double>(i) - half) / half;
            universe.emplace_back(core::paper_biquad().with_f0_shift(dev));
        }

        std::vector<double> ndf_exact(universe.size());
        std::vector<double> ndf_fast(universe.size());
        const double v_rate = rate_of(
            [&] {
                core::NdfScratch scratch;
                for (std::size_t i = 0; i < universe.size(); ++i)
                    ndf_exact[i] = exact_pipe.ndf_of(universe[i], scratch);
            },
            static_cast<double>(universe_size), min_seconds);
        const double k_rate = rate_of(
            [&] {
                core::NdfScratch scratch;
                for (std::size_t i = 0; i < universe.size(); ++i)
                    ndf_fast[i] = fast_pipe.ndf_of(universe[i], scratch);
            },
            static_cast<double>(universe_size), min_seconds);
        const std::size_t samplings =
            core::StimulusTraceCache::instance().misses() - misses_before;
        double worst = 0.0;
        for (std::size_t i = 0; i < universe.size(); ++i)
            worst = std::max(worst, std::abs(ndf_exact[i] - ndf_fast[i]));
        const double tol = 16.0 / static_cast<double>(samples);
        stages.push_back({.name = "fused ndf fast_math",
                          .unit = "cuts/s",
                          .virtual_rate = v_rate,
                          .compiled_rate = k_rate,
                          .gate = "dndf<=16/spp & <=1 sampling",
                          .passed = worst <= tol && samplings <= 1,
                          .measure = worst});
        out << "trace cache: " << samplings << " stimulus sampling(s) for "
            << 2 * universe_size << " member evaluations across two modes\n";
    }

    bool all_identical = true; // bit-gated rows only (the legacy aggregate)
    bool all_passed = true;    // every gate, tolerance rows included
    TextTable t({"stage", "threads", "virtual", "compiled", "unit", "speedup",
                 "gate", "pass"});
    for (const StageResult& s : stages) {
        if (s.bit_gate())
            all_identical = all_identical && s.passed;
        all_passed = all_passed && s.passed;
        t.add_row({s.name, std::to_string(s.threads),
                   format_double(s.virtual_rate, 4),
                   format_double(s.compiled_rate, 4), s.unit,
                   format_double(s.speedup(), 2), s.gate,
                   s.passed ? "yes" : "NO (BUG)"});
    }
    t.print(out);
    if (!all_passed)
        out << "ERROR: a kernel gate failed (divergence from the exact path "
               "or a missed tolerance)\n";

    write_json(json_path, smoke, samples, universe_size, bank, compiled_bank,
               stages, all_identical, all_passed);
    return all_passed;
}

// --- google-benchmark timers (full mode only) ---------------------------

void BM_ZoningVirtual(benchmark::State& state) {
    const monitor::MonitorBank bank = make_bench_bank();
    std::vector<double> xs;
    std::vector<double> ys;
    double dt = 0.0;
    filter::BehaviouralCut(core::paper_biquad())
        .respond_into(core::paper_stimulus(), 4096, xs, ys, dt);
    std::vector<unsigned> codes(xs.size());
    for (auto _ : state) {
        for (std::size_t i = 0; i < xs.size(); ++i)
            codes[i] = bank.code(xs[i], ys[i]);
        benchmark::DoNotOptimize(codes.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_ZoningVirtual)->Unit(benchmark::kMillisecond);

void BM_ZoningCompiled(benchmark::State& state) {
    const auto compiled = kernels::CompiledMonitorBank::compile(make_bench_bank());
    std::vector<double> xs;
    std::vector<double> ys;
    double dt = 0.0;
    filter::BehaviouralCut(core::paper_biquad())
        .respond_into(core::paper_stimulus(), 4096, xs, ys, dt);
    std::vector<unsigned> codes;
    for (auto _ : state) {
        compiled.codes_into(xs, ys, codes);
        benchmark::DoNotOptimize(codes.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_ZoningCompiled)->Unit(benchmark::kMillisecond);

/// Arg 0: the virtual chronogram() reference; arg 1: the compiled scratch
/// path.
void BM_FusedNdf(benchmark::State& state) {
    core::PipelineOptions opts;
    opts.samples_per_period = 4096;
    core::SignaturePipeline pipe(make_bench_bank(), core::paper_stimulus(), opts);
    const filter::BehaviouralCut golden(core::paper_biquad());
    pipe.set_golden(golden);
    const capture::Chronogram virt_golden = pipe.chronogram(golden);
    const filter::BehaviouralCut cut(core::paper_biquad().with_f0_shift(0.1));
    core::NdfScratch scratch;
    for (auto _ : state) {
        if (state.range(0) == 0)
            benchmark::DoNotOptimize(core::ndf(pipe.chronogram(cut), virt_golden));
        else
            benchmark::DoNotOptimize(pipe.ndf_of(cut, scratch));
    }
}
BENCHMARK(BM_FusedNdf)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string json_path = "bench_kernels.json";
    std::vector<char*> bench_args{argv[0]};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke")
            smoke = true;
        else if (arg.rfind("--json=", 0) == 0)
            json_path = arg.substr(7);
        else
            bench_args.push_back(argv[i]);
    }
    const bool gates_passed = run_report(std::cout, smoke, json_path);
    if (!smoke) {
        int bench_argc = static_cast<int>(bench_args.size());
        benchmark::Initialize(&bench_argc, bench_args.data());
        benchmark::RunSpecifiedBenchmarks();
    }
    return gates_passed ? 0 : 1;
}
