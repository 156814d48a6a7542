#ifndef IMS_SERVICE_OPTIONS_CODEC_HPP
#define IMS_SERVICE_OPTIONS_CODEC_HPP

#include <string>

#include "core/pipeliner.hpp"

namespace ims::service {

/**
 * Canonical, byte-stable text rendering of the *semantically relevant*
 * pipeline options — the third component of the content-addressed cache
 * key (see docs/SERVICE.md, "Cache key").
 *
 * Normalization drops every knob that is guaranteed not to change the
 * produced PipelineResult: telemetry sinks and trace buffers
 * (observability-only pointers).
 *
 * Everything else — backend strategy, BudgetRatio, maxIiIncrease,
 * priority scheme, forward-progress rule, random seed, exact node
 * budget, delay mode, DSA form, verification flags/trips/seed — is
 * emitted as one "key value" line each, in a fixed order, with doubles
 * in their shortest round-tripping decimal form. Two PipelinerOptions
 * values produce the same text iff they request the same computation.
 */
std::string canonicalOptionsText(const core::PipelinerOptions& options);

/**
 * Largest sim-verification trip count parseOptionsText accepts. A cache
 * file's options text is untrusted, and each trip costs simulation time
 * and memory linear in it; the default trips and the fuzzer's stop at 17.
 */
inline constexpr int kMaxVerifySimTrip = 1000;

/**
 * Inverse of canonicalOptionsText, for cache persistence: rebuild a
 * PipelinerOptions (sinks null) from the canonical text.
 * @throws support::Error on unknown keys or malformed values, including
 *         a verify_sim_trips entry above kMaxVerifySimTrip.
 */
core::PipelinerOptions parseOptionsText(const std::string& text);

} // namespace ims::service

#endif // IMS_SERVICE_OPTIONS_CODEC_HPP
