#include "core/fingerprint.h"

#include "common/strings.h"

namespace xysig::core {

std::string setup_fingerprint(std::string_view bank_fp,
                              const MultitoneWaveform& stimulus,
                              std::size_t samples_per_period,
                              bool fast_math) {
    // Discrete appends, not a `"x" + std::string&&` chain: that pattern hits
    // GCC's -Wrestrict false positive at -O3 under the -Werror hardening lane.
    std::string fp;
    if (!bank_fp.empty()) {
        fp += "bank{";
        fp += bank_fp;
        fp += "}|";
    }
    fp += "stim{";
    fp += format_double_exact(stimulus.offset());
    for (const Tone& tone : stimulus.tones()) {
        fp += ';';
        fp += format_double_exact(tone.amplitude);
        fp += ',';
        fp += format_double_exact(tone.frequency_hz);
        fp += ',';
        fp += format_double_exact(tone.phase_rad);
    }
    fp += "}|spp=";
    fp += std::to_string(samples_per_period);
    fp += "|fm=";
    fp += fast_math ? '1' : '0';
    return fp;
}

std::string stimulus_trace_key(const MultitoneWaveform& stimulus,
                               std::size_t samples_per_period,
                               SampleMode mode) {
    return setup_fingerprint({}, stimulus, samples_per_period,
                             mode == SampleMode::fast_math);
}

} // namespace xysig::core
