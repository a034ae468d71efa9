#ifndef XYSIG_CORE_GOLDEN_CACHE_H
#define XYSIG_CORE_GOLDEN_CACHE_H

/// \file golden_cache.h
/// Process-wide cache of golden (ideal, unquantised) chronograms.
///
/// Sweep drivers rebuild a SignaturePipeline per grid point (the capture
/// ablation rebuilds one per (f_clk, counter_bits) cell), and the
/// (bank, stimulus, sampling options, golden CUT) tuple is unchanged
/// between them. SignaturePipeline::set_golden files the expensive
/// pre-quantisation chronogram under SignaturePipeline::golden_cache_key,
/// so capture-option grids share one golden computation; quantisation,
/// which depends on the capture options, is applied per pipeline after
/// lookup. Goldens are tiny (tens of events), so the bound is sized for
/// "every concurrently useful experimental setup", not memory pressure.

#include "capture/chronogram.h"
#include "core/exact_key_lru.h"

namespace xysig::core {

using GoldenSignatureCache = ExactKeyLru<capture::Chronogram, 1024>;

} // namespace xysig::core

#endif // XYSIG_CORE_GOLDEN_CACHE_H
