#ifndef XYSIG_CORE_FINGERPRINT_H
#define XYSIG_CORE_FINGERPRINT_H

/// \file fingerprint.h
/// The one exact-key format every result cache is keyed on.
///
/// A setup fingerprint names everything a pipeline setup feeds into result
/// bits:
///
///     bank{<bank>}|stim{<offset>;<amp>,<freq>,<phase>;...}|spp=<N>|fm=<0|1>
///
/// Every float is hexfloat-formatted (format_double_exact), so two setups
/// share a fingerprint only when they produce the same bits. The golden
/// cache prefixes `cut{<cut>}|`, the whole-job cache appends the job's
/// universe, and the stimulus trace, which does not depend on the monitor
/// bank, keys on the `stim{...}|spp=<N>|fm=<0|1>` subset. The sampling mode
/// is in every key: exact and fast_math results differ within the ULP
/// tolerance and must never alias.

#include <cstddef>
#include <string>
#include <string_view>

#include "signal/sample_mode.h"
#include "signal/waveform.h"

namespace xysig::core {

/// Builds the setup fingerprint above. An empty `bank_fp` omits the
/// `bank{}` segment; callers whose bank has no exact fingerprint must not
/// cache at all.
[[nodiscard]] std::string setup_fingerprint(std::string_view bank_fp,
                                            const MultitoneWaveform& stimulus,
                                            std::size_t samples_per_period,
                                            bool fast_math);

/// Key of one sampled stimulus trace: `stim{...}|spp=<N>|fm=<0|1>`.
[[nodiscard]] std::string stimulus_trace_key(const MultitoneWaveform& stimulus,
                                             std::size_t samples_per_period,
                                             SampleMode mode);

} // namespace xysig::core

#endif // XYSIG_CORE_FINGERPRINT_H
