// A fixed reference computation, timed next to the benchmark's ops so that
// op latencies can be stated at one steady host speed.
//
// On a shared host the analyses run up to 1.6x slower for seconds to minutes
// at a time. Tight arithmetic loops and plain memory walks hardly slow down
// in those periods; branchy, allocation-heavy library code (what the
// analyses are made of) slows down with them. The reference is code of that
// second kind, owned by the benchmark and never changed with the library, so
// the ratio of an op's latency to the reference time around it stays put
// when the host's speed changes and moves when the library's does.
#pragma once

namespace pabench {

/// What one reference run takes on an uncontended core of the host the
/// bounds were set on (4-vCPU KVM guest on a Xeon, RelWithDebInfo). It only
/// sets the scale of calibrated figures, so they read as milliseconds close
/// to an idle host's; changing it rescales every calibrated figure.
inline constexpr double kReferenceNominalMs = 4.0;

/// Run the reference computation once and return its wall time in ms. The
/// work is the same on every call.
double time_reference_ms();

/// A duration `took` (in any unit) stated at the reference's nominal speed:
/// `took` scaled by kReferenceNominalMs over the mean of the reference times
/// measured just before and just after it. Returns `took` unchanged when
/// either reference time is not positive.
double calibrate(double took, double ref_before_ms, double ref_after_ms);

}  // namespace pabench
