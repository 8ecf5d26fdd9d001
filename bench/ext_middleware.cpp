// Extension (paper §4.2, made dynamic): route every submission and
// cancellation through per-cluster middleware stations with a finite
// service rate (GT4 WS-GRAM sustains ~1 op/s) and watch the bottleneck
// appear as redundancy grows. The paper derives r < 3 analytically from
// r/iat <= 0.5; here the same threshold emerges in simulation as a
// diverging middleware backlog and ballooning delivery latency.
//
//   ./ext_middleware [--rate=1.0] [--seed=42] + common flags.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace rrsim;
  return bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    const double rate = cli.get_double("rate", 1.0);
    core::ExperimentConfig base = core::figure_config();
    base.submit_horizon = 2.0 * 3600.0;
    base = core::apply_common_flags(base, cli);
    base.middleware_ops_per_sec = rate;
    if (cli.has("mw-rate")) {
      base.middleware_ops_per_sec = cli.get_double("mw-rate", rate);
    }
    cli.reject_unread();
    std::printf("=== Extension - middleware saturation under redundancy "
                "===\n");
    std::printf("N=10 shared-peak; middleware %.2f ops/s per cluster; the\n"
                "analytic bound (paper section 4.2) predicts saturation "
                "once each\ncluster's operation rate r/iat exceeds the "
                "service rate\n\n", rate);

    // Offered middleware load per cluster: every job lands r replicas
    // spread over N clusters plus up to r-1 cancellations.
    const double cluster_iat =
        base.base_workload.mean_interarrival() *
        static_cast<double>(base.n_clusters);

    const std::vector<const char*> schemes{"NONE", "R2", "R4", "HALF",
                                           "ALL"};
    std::vector<core::SimResult> runs(schemes.size());
    core::CampaignSweep sweep(1);
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      core::ExperimentConfig c = base;
      c.scheme = core::RedundancyScheme::parse(schemes[i]);
      sweep.runner().add(
          1,
          [c](int) {
            return core::run_experiment(c, core::thread_workspace());
          },
          [&runs, i](int, core::SimResult r) { runs[i] = std::move(r); });
    }
    sweep.run();

    util::Table table({"scheme", "ops offered /s/cluster", "max backlog",
                       "mean op latency (s)", "avg stretch"});
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      const core::SimResult& r = runs[i];
      const auto m = metrics::compute_metrics(r.records);
      const double degree = static_cast<double>(
          core::RedundancyScheme::parse(schemes[i]).degree(base.n_clusters));
      // Each job contributes `degree` submissions + (degree-1) cancels,
      // spread uniformly over the N clusters; arrivals are per system.
      const double offered =
          (2.0 * degree - 1.0) / cluster_iat;
      table.begin_row()
          .add(schemes[i])
          .add(offered, 3)
          .add(r.middleware_max_backlog, 0)
          .add(r.middleware_mean_sojourn, 1)
          .add(m.avg_stretch, 1);
    }
    table.print(std::cout);
    std::printf("\nbacklog/latency stay flat while offered < %.2f ops/s and "
                "blow up past it\n", rate);
    bench::sweep_summary(sweep);
  });
}
