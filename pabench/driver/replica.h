// The traced run's decomposed pipeline: the stages of
// privanalyzer::analyze_program called one by one, in pipeline.cpp's order,
// each wrapped in a span from outside the library. The replica must produce
// the same epoch table and verdicts as analyze_program; the workloads check
// that on every traced op.
#pragma once

#include <cstdint>
#include <string>

#include "core/expected.h"
#include "core/spans.h"
#include "privanalyzer/pipeline.h"

namespace pabench {

/// Work counters of one analysis, read only from SearchStats fields every
/// ROSA engine keeps (states, transitions, peak_bytes, cache hits/misses).
/// states, transitions and peak_bytes cover the queries that were searched,
/// not those served from the verdict cache.
struct StageCounters {
  std::uint64_t instructions = 0;  // ChronoPriv dynamic instructions
  std::uint64_t queries = 0;       // (epoch x attack) cells, both matrices
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t peak_bytes = 0;    // max over searched queries
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  void add(const StageCounters& o);
};

/// Counters of a finished analysis (both matrices when filters ran).
StageCounters counters_of(const pa::privanalyzer::ProgramAnalysis& a);

/// analyze_program's stages with spans named "autopriv", "os.world",
/// "chronopriv", "filters", "attacks.scenario" and "rosa" under a
/// "privanalyzer" span (child of `parent`). Supports filters Off and Report,
/// a private per-program cache or `options.rosa_cache_instance`, and the
/// pipeline deadline; no lint, world factory, simplify or cache file.
pa::privanalyzer::ProgramAnalysis analyze_traced(
    const pa::programs::ProgramSpec& spec,
    const pa::privanalyzer::PipelineOptions& options, SpanRecorder& rec,
    std::uint64_t op, int parent);

/// The baseline matrix of an analysis in the expected file's terms.
ProgramOutcome baseline_outcome(const pa::privanalyzer::ProgramAnalysis& a);
/// The filtered matrix (filtered_verdicts) in the same terms.
ProgramOutcome filtered_outcome(const pa::privanalyzer::ProgramAnalysis& a);

}  // namespace pabench
