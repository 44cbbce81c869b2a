// Reproduces Fig. 4: bypass rate (%) of each attack's successful AEs over
// five weekly commercial-AV learning updates. The paper's result: baselines
// decay as vendors mine their fixed artifacts; MPass stays at 100% thanks to
// the shuffle strategy + per-sample optimized perturbations. The
// MPass-noshuffle ablation shows the shuffle strategy is what prevents
// pattern learning.
#include "bench_common.hpp"

int main() {
  using namespace mpass;
  const auto cfg = harness::ExperimentConfig::from_env();
  bench::BenchReport report("fig4_av_learning");
  const auto tl = harness::av_learning_timeline(cfg);
  report.add_cells(tl.cells);

  for (std::size_t v = 0; v < tl.avs.size(); ++v) {
    util::Table table("Fig. 4 (" + tl.avs[v] +
                      "): bypass rate (%) over weekly AV updates");
    std::vector<std::string> header = {"Attack"};
    for (std::size_t r = 0; r < tl.rounds; ++r)
      header.push_back("week " + std::to_string(r));
    table.header(header);
    for (std::size_t a = 0; a < tl.attacks.size(); ++a) {
      std::vector<std::string> row = {tl.attacks[a]};
      for (std::size_t r = 0; r < tl.rounds; ++r)
        row.push_back(util::Table::num(tl.bypass[a][v][r], 1));
      table.row(row);
    }
    std::cout << table.render();
  }
  std::printf(
      "Paper Fig. 4: all methods start at 100%% (successful AEs only);\n"
      "after 4 weekly updates every baseline's bypass rate drops sharply\n"
      "while MPass stays at 100%% on all five AVs.\n");
  return 0;
}
