// Reproduces Fig. 3: ASR (%) of each attack against the five commercial
// ML-AV simulators (AV1..AV5).
#include "bench_common.hpp"

int main() {
  using namespace mpass;
  const auto cfg = harness::ExperimentConfig::from_env();
  bench::BenchReport report("fig3_av_asr");
  const auto cells = harness::av_grid(cfg);
  report.add_cells(cells);
  bench::print_grid(
      "Fig. 3: ASR (%) of attacking commercial ML AVs", cells,
      bench::av_targets(), bench::main_attacks(),
      [](const harness::CellStats& c) { return c.asr; });
  std::printf(
      "Paper Fig. 3 (MPass vs best baseline):\n"
      "  AV1 42.3  AV2 35.8  AV3 61.2 (baselines <= 23.2)\n"
      "  AV4 58.8 (baselines <= 6.7)  AV5 29.2\n");
  return 0;
}
