// Ablation: ownership-record table size (DESIGN.md Sec. 5.3).
//
// OrecEagerRedo hashes addresses into a fixed table of packed one-word
// orecs, eight per cache line; a smaller table raises the false-conflict
// rate (distinct words sharing an orec). The paper's Eigenbench view-2 is
// the sensitive case: its accesses spread over a 16k-word hot array, so
// with few orecs unrelated accesses collide. The sweep brackets the
// default 32,768 orecs (256 KiB) from 64 up to 65,536.
#include <iostream>

#include "bench/harness.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace votm;
  using namespace votm::bench;
  const BenchOptions opts = parse_options(
      "Ablation: orec table size on low-contention Eigenbench / OrecEagerRedo",
      argc, argv);
  print_preamble("Ablation: orec table size", opts);

  TextTable table("Orec table size ablation (cold Eigenbench view)");
  table.header({"orecs", "Runtime(s)", "#abort", "#tx", "delta(Q)"});
  for (std::size_t orecs : {64u, 256u, 1024u, 4096u, 16384u, 32768u, 65536u}) {
    eigen::WorldConfig wc = eigen_base_config(opts, stm::Algo::kOrecEagerRedo,
                                              eigen::Layout::kSingleView);
    wc.objects = {eigen::paper_view2()};  // low-contention object
    wc.objects[0].loops = opts.loops;
    wc.rac = core::RacMode::kFixed;
    wc.fixed_quotas = {opts.threads};
    wc.engine.orec_table_size = orecs;
    eigen::EigenWorld world(wc);
    const eigen::RunReport r = world.run();
    table.row({std::to_string(orecs),
               r.livelocked ? "livelock" : format_seconds(r.runtime_seconds),
               human_count(r.total.aborts), human_count(r.total.commits),
               format_delta(r.views[0].delta)});
    std::cerr << "  [done] orecs=" << orecs << "\n";
  }
  table.print();
  std::cout << "Shape note: orec granularity has two competing effects. Very "
               "coarse tables alias heavily, so doomed transactions hit a "
               "foreign lock on their FIRST access and abort cheaply (an "
               "implicit throttle); very fine tables eliminate false "
               "conflicts. The worst point is in between: enough aliasing to "
               "conflict often, enough orecs to get deep into the transaction "
               "before noticing — wasted work and runtime peak there.\n";
  return 0;
}
