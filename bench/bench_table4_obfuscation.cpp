// Reproduces Table IV: obfuscation/packing (UPX, PESpin, ASPack) vs MPass
// on the commercial ML-AV simulators.
#include "bench_common.hpp"

int main() {
  using namespace mpass;
  const auto cfg = harness::ExperimentConfig::from_env();
  bench::BenchReport report("table4_obfuscation");
  const auto cells = harness::obfuscation_grid(cfg);
  report.add_cells(cells);
  const std::vector<std::string> attacks = {"UPX", "PESpin", "ASPack",
                                            "MPass"};
  // Paper Table IV is transposed (rows = methods); match that layout.
  util::Table table(
      "Table IV: Comparison with obfuscation techniques, ASR (%) on AVs");
  table.header({"Method", "AV1", "AV2", "AV3", "AV4", "AV5"});
  for (const std::string& a : attacks) {
    std::vector<std::string> row = {a};
    for (const std::string& t : bench::av_targets())
      row.push_back(
          util::Table::num(bench::cell(cells, a, t).asr, 1));
    table.row(row);
  }
  std::cout << table.render();
  std::printf(
      "Paper Table IV:\n"
      "  UPX 17.1/19.8/11.5/14.8/7.6   PESpin 12.2/16.4/4.0/11.8/5.5\n"
      "  ASPack 17.6/4.2/9.6/12.6/9.3  MPass 42.3/35.8/61.2/58.8/29.2\n");
  return 0;
}
