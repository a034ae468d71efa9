#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

/// \file reference.h
/// The output check behind failed_frac: a streamed member's ndf_hex is
/// compared bit for bit (NaN included) with an independent serial
/// evaluation, server::wire_serial_reference, of a one-member `members`
/// slice of the same job line. It runs outside the timed phase.

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct CheckItem {
    std::string job_line;     ///< the job line as sent
    std::string universe_tag; ///< JobSpec::universe_tag (dedupes references)
    std::size_t member = 0;   ///< global member id
    std::string observed_hex; ///< ndf_hex the server streamed
};

/// Evaluates every distinct (universe_tag, member) once, on `threads`
/// threads, and returns one flag per item: true when the bits agree.
/// Failures to evaluate count as disagreement; their messages are appended
/// to `errors`.
[[nodiscard]] std::vector<bool> check_against_reference(
    const std::vector<CheckItem>& items, std::size_t samples_per_period,
    unsigned threads, std::vector<std::string>& errors);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
