// Regenerates the paper's Table III: for each of the five baseline
// programs, the ChronoPriv privilege epochs (privileges, uids, gids,
// dynamic instruction counts) and the four ROSA attack verdicts per epoch.
//
// Expected shape versus the paper: ping safe everywhere; thttpd safe for
// ~90%; passwd and su vulnerable to attacks 1/2/4 for most of execution;
// sshd vulnerable for essentially all of it; attack 3 only where
// CAP_NET_BIND_SERVICE is still permitted.
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "privanalyzer/export.h"
#include "privanalyzer/render.h"
#include "support/str.h"

using namespace pa;

int main(int argc, char** argv) {
  const std::string json_path = bench::take_json_flag(argc, argv);
  std::cout << privanalyzer::render_attack_table() << "\n";

  privanalyzer::PipelineOptions opts;
  opts.rosa_limits.max_states = 1'000'000;

  std::vector<privanalyzer::ProgramAnalysis> analyses =
      privanalyzer::analyze_baseline(opts);

  std::cout << privanalyzer::render_efficacy_table(
      analyses,
      "Table III: Security Efficacy Results (V vulnerable / x safe / T "
      "limit)");

  std::cout << "\nHeadline numbers (paper: passwd and su retain the ability "
               "to read+write /dev/mem\nfor 97% and 88% of execution):\n";
  for (const privanalyzer::ProgramAnalysis& a : analyses) {
    privanalyzer::ExposureSummary s = privanalyzer::exposure_of(a);
    std::cout << "  " << a.program << ": devmem-read "
              << str::percent(s.devmem_read) << ", devmem-write "
              << str::percent(s.devmem_write) << ", any-attack "
              << str::percent(s.any_attack) << "\n";
  }
  std::cout << "\nCells the may-reach prover decided without a search:\n";
  for (const privanalyzer::ProgramAnalysis& a : analyses)
    std::cout << "  " << a.program << ": " << a.search_stats().proved
              << " proved\n";
  std::cout << "\nCSV (for plotting):\n"
            << privanalyzer::efficacy_to_csv(analyses);

  if (!json_path.empty()) {
    // Aggregate throughput/compactness over the full Table-III query matrix.
    double states = 0.0, seconds = 0.0, worst_bps = 0.0;
    for (const privanalyzer::ProgramAnalysis& a : analyses) {
      const rosa::SearchStats s = a.search_stats();
      states += static_cast<double>(s.states);
      seconds += s.seconds;
      worst_bps = std::max(worst_bps, s.bytes_per_state());
    }
    std::vector<std::pair<std::string, double>> metrics = {
        {"table3_states", states},
        {"table3_seconds", seconds},
        {"table3_states_per_sec", seconds > 0 ? states / seconds : 0.0},
        {"table3_max_bytes_per_state", worst_bps},
    };
    if (!bench::write_json_metrics(json_path, metrics)) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
