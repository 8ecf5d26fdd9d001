// Extension (paper §2/§6): per-user pending-request limits as a
// mitigation for redundant requests. The paper notes schedulers can cap a
// user's pending requests and asks whether "solutions to prevent or limit
// their use may or may not be necessary". This harness quantifies the
// knob: with 40% of jobs using ALL redundancy, sweep the per-user cap and
// watch the unfair advantage (n-r vs r stretch) and the middleware load
// (replica submissions/cancellations) shrink.
//
//   ./ext_limits [--reps=3|--full] [--users=4] [--seed=42] + common flags.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace rrsim;
  return bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    const int reps = bench::repetitions(cli, 3);
    bench::banner(
        "Extension - per-user pending limits as a redundancy mitigation",
        "N=10, 40% of jobs use ALL; 'advantage' = n-r stretch / r stretch\n"
        "(1.0 would be perfectly fair); limit 0 = uncapped",
        reps);

    core::ExperimentConfig base = core::figure_config();
    base.scheme = core::RedundancyScheme::all();
    base.redundant_fraction = 0.4;
    base.users_per_cluster = 4;  // few users -> many jobs per user
    base = core::apply_common_flags(base, cli);

    const std::vector<int> limits{0, 16, 8, 4, 2, 1};
    std::vector<core::ClassifiedCampaign> results(limits.size());
    std::vector<core::SimResult> probes(limits.size());
    core::CampaignSweep sweep(reps);
    for (std::size_t i = 0; i < limits.size(); ++i) {
      core::ExperimentConfig c = base;
      c.per_user_pending_limit = limits[i];
      sweep.add_classified(
          c, [&results, i](const core::ClassifiedCampaign& m) {
            results[i] = m;
          });
      // Ops from one representative run (ops scale linearly with reps).
      sweep.runner().add(
          1,
          [c](int) {
            return core::run_experiment(c, core::thread_workspace());
          },
          [&probes, i](int, core::SimResult r) { probes[i] = std::move(r); });
    }
    sweep.run();

    util::Table table({"per-user cap", "r stretch", "n-r stretch",
                       "advantage", "replica submits", "rejected",
                       "cancellations"});
    for (std::size_t i = 0; i < limits.size(); ++i) {
      const core::ClassifiedCampaign& res = results[i];
      const core::SimResult& sim = probes[i];
      table.begin_row()
          .add(limits[i] == 0 ? std::string("off")
                              : std::to_string(limits[i]))
          .add(res.avg_stretch_redundant, 2)
          .add(res.avg_stretch_non_redundant, 2)
          .add(res.avg_stretch_redundant > 0.0
                   ? res.avg_stretch_non_redundant /
                         res.avg_stretch_redundant
                   : 0.0,
               2)
          .add(static_cast<long long>(sim.ops.submits))
          .add(static_cast<long long>(sim.replicas_rejected))
          .add(static_cast<long long>(sim.gateway_cancels));
    }
    table.print(std::cout);
    std::printf("\ntight caps trim replicas (fewer submits/cancels) and "
                "shrink the\nredundant users' advantage toward fairness\n");
    bench::sweep_summary(sweep);
  });
}
