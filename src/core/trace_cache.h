#ifndef XYSIG_CORE_TRACE_CACHE_H
#define XYSIG_CORE_TRACE_CACHE_H

/// \file trace_cache.h
/// Process-wide cache of sampled stimulus traces.
///
/// For behavioural universes the x channel of every member is the stimulus
/// itself (Cut::x_is_stimulus). SignaturePipeline fetches one immutable
/// trace per stimulus_trace_key (stimulus, samples_per_period, sample
/// mode) and every worker thread reads that shared buffer, so a whole job
/// costs exactly one stimulus sampling: misses() doubles as the
/// sampling-count probe in tests and bench gates. Traces are
/// samples_per_period doubles (64 KiB at the paper's 8192), hence the
/// bound far below the golden cache's.

#include <vector>

#include "core/exact_key_lru.h"
#include "core/fingerprint.h"

namespace xysig::core {

using StimulusTraceCache = ExactKeyLru<std::vector<double>, 64>;

} // namespace xysig::core

#endif // XYSIG_CORE_TRACE_CACHE_H
