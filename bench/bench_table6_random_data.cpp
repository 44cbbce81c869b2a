// Reproduces Table VI: the Random-data ablation -- random bytes written at
// MPass's modification positions (no benign content, no optimization) vs
// MPass, demonstrating the AVs are not hash-based.
#include "bench_common.hpp"

int main() {
  using namespace mpass;
  const auto cfg = harness::ExperimentConfig::from_env();
  bench::BenchReport report("table6_random_data");
  const auto cells = harness::random_data_grid(cfg);
  report.add_cells(cells);
  util::Table table(
      "Table VI: Random data at MPass positions vs MPass, ASR (%) on AVs");
  table.header({"Method", "AV1", "AV2", "AV3", "AV4", "AV5"});
  for (const std::string& a :
       {std::string("Random-data"), std::string("MPass")}) {
    std::vector<std::string> row = {a};
    for (const std::string& t : bench::av_targets())
      row.push_back(util::Table::num(bench::cell(cells, a, t).asr, 1));
    table.row(row);
  }
  std::cout << table.render();
  std::printf(
      "Paper Table VI:\n"
      "  Random data 8.3/4.1/5.9/7.2/6.6  MPass 42.3/35.8/61.2/58.8/29.2\n");
  return 0;
}
