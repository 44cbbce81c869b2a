// Reproduces Table V: the Other-sec ablation -- modifying every section
// *except* code/data (with the same recovery/filler machinery) vs MPass on
// the commercial AV simulators.
#include "bench_common.hpp"

int main() {
  using namespace mpass;
  const auto cfg = harness::ExperimentConfig::from_env();
  bench::BenchReport report("table5_other_sec");
  const auto cells = harness::other_sec_grid(cfg);
  report.add_cells(cells);
  util::Table table(
      "Table V: Impact of changing modification positions, ASR (%) on AVs");
  table.header({"Method", "AV1", "AV2", "AV3", "AV4", "AV5"});
  for (const std::string& a : {std::string("Other-sec"), std::string("MPass")}) {
    std::vector<std::string> row = {a};
    for (const std::string& t : bench::av_targets())
      row.push_back(util::Table::num(bench::cell(cells, a, t).asr, 1));
    table.row(row);
  }
  std::cout << table.render();
  std::printf(
      "Paper Table V:\n"
      "  Other-sec 2.3/4.8/3.2/2.4/5.2  MPass 42.3/35.8/61.2/58.8/29.2\n");
  return 0;
}
