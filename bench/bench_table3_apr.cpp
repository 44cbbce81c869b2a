// Reproduces Table III: APR (%) -- mean file-size increase of successful
// AEs -- for each attack against the offline detectors. Re-aggregates
// Table I's per-sample result shards.
#include "bench_common.hpp"

int main() {
  using namespace mpass;
  const auto cfg = harness::ExperimentConfig::from_env();
  bench::BenchReport report("table3_apr");
  const auto cells = harness::offline_grid(cfg);
  report.add_cells(cells);
  bench::print_grid(
      "Table III: APR (%) of attack methods on offline models", cells,
      bench::offline_targets(), bench::main_attacks(),
      [](const harness::CellStats& c) { return c.apr; });
  std::printf(
      "Paper Table III:\n"
      "  MalConv 108.6/613.5/430.3/4013.5/402.8 NonNeg 68.4/657.4/300.3/3721.4/362.4\n"
      "  LightGBM 182.5/432.8/475.0/3613.2/506.3 MalGCG 82.6/389.6/959.2/4214.3/324.5\n");
  return 0;
}
