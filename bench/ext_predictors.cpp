// Extension (paper §5 future work): the paper ends Section 5 asking what
// redundant requests do to *statistical* wait-time predictors such as the
// Binomial Method Batch Predictor of its reference [2] — "we will explore
// this intriguing issue in future work". This harness does the
// experiment: BMBP quantile upper bounds are trained online from each
// cluster's observed waits and evaluated on later jobs, with and without
// redundancy in the system.
//
//   ./ext_predictors [--quantile=0.95] [--confidence=0.95] [--seed=42]
//                    + common flags.

#include <algorithm>
#include <array>
#include <queue>

#include "bench_common.h"
#include "rrsim/forecast/bmbp.h"
#include "rrsim/util/stats.h"

namespace {

using namespace rrsim;

struct Evaluation {
  std::size_t evaluated = 0;  ///< jobs with a bound available
  std::size_t covered = 0;    ///< actual wait <= bound
  util::OnlineStats tightness;  ///< bound / actual, waits >= 60 s

  double coverage() const {
    return evaluated ? static_cast<double>(covered) /
                           static_cast<double>(evaluated)
                     : 0.0;
  }
};

/// Replays the records in submission order, feeding each cluster's
/// predictor with the waits of jobs that started there before the
/// evaluated job was submitted (what an online forecaster would have
/// seen), and scores the bound against the job's real wait.
std::array<Evaluation, 2> evaluate_bmbp(const metrics::JobRecords& records,
                                        std::size_t n_clusters, double q,
                                        double c) {
  std::vector<metrics::JobRecord> by_submit(records.begin(), records.end());
  std::sort(by_submit.begin(), by_submit.end(),
            [](const auto& a, const auto& b) {
              return a.submit_time < b.submit_time;
            });
  std::vector<forecast::BmbpPredictor> predictors(
      n_clusters, forecast::BmbpPredictor(q, c, 512));
  // Waits become observable when the job starts; deliver them in start
  // order as the submit-ordered scan advances.
  using StartEvent = std::pair<double, const metrics::JobRecord*>;
  std::priority_queue<StartEvent, std::vector<StartEvent>, std::greater<>>
      starts;
  for (const auto& rec : by_submit) starts.emplace(rec.start_time, &rec);

  std::array<Evaluation, 2> eval;  // [0] = n-r jobs, [1] = r jobs
  for (const auto& rec : by_submit) {
    while (!starts.empty() && starts.top().first <= rec.submit_time) {
      const metrics::JobRecord* done = starts.top().second;
      starts.pop();
      predictors[done->winner_cluster].observe(done->wait_time());
    }
    const auto bound = predictors[rec.origin_cluster].upper_bound();
    if (!bound) continue;
    Evaluation& e = eval[rec.redundant ? 1 : 0];
    ++e.evaluated;
    if (rec.wait_time() <= *bound) ++e.covered;
    if (rec.wait_time() >= 60.0) {
      e.tightness.add(*bound / rec.wait_time());
    }
  }
  return eval;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    const double q = cli.get_double("quantile", 0.95);
    const double c = cli.get_double("confidence", 0.95);
    core::ExperimentConfig base =
        core::apply_common_flags(core::figure_config(), cli);
    cli.reject_unread();
    std::printf("=== Extension - statistical (BMBP) wait predictors under "
                "redundancy ===\n");
    std::printf("N=10; per-cluster BMBP upper bound on the %.0f%%-quantile "
                "of waits at\n%.0f%% confidence, trained online; 'coverage' "
                "should be >= %.0f%% when\nthe predictor works\n\n",
                q * 100.0, c * 100.0, q * 100.0);

    struct Scenario {
      const char* label;
      double fraction;
    };
    const std::vector<Scenario> scenarios{{"no redundancy", 0.0},
                                          {"40% ALL", 0.4},
                                          {"100% ALL", 1.0}};
    std::vector<core::SimResult> runs(scenarios.size());
    core::CampaignSweep sweep(1);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      core::ExperimentConfig cfg = base;
      cfg.scheme = core::RedundancyScheme::all();
      cfg.redundant_fraction = scenarios[i].fraction;
      sweep.runner().add(
          1,
          [cfg](int) {
            return core::run_experiment(cfg, core::thread_workspace());
          },
          [&runs, i](int, core::SimResult r) { runs[i] = std::move(r); });
    }
    sweep.run();

    util::Table table({"population", "class", "jobs", "coverage %",
                       "median-ish tightness (x actual)"});
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const auto eval =
          evaluate_bmbp(runs[i].records, base.n_clusters, q, c);
      const char* class_names[2] = {"n-r jobs", "r jobs"};
      for (int k = 0; k < 2; ++k) {
        if (eval[static_cast<std::size_t>(k)].evaluated == 0) continue;
        const Evaluation& e = eval[static_cast<std::size_t>(k)];
        table.begin_row()
            .add(scenarios[i].label)
            .add(class_names[k])
            .add(static_cast<long long>(e.evaluated))
            .add(e.coverage() * 100.0, 1)
            .add(e.tightness.mean(), 1);
      }
    }
    table.print(std::cout);
    bench::sweep_summary(sweep);
    std::printf(
        "\nreading: redundancy keeps BMBP coverage healthy for the jobs "
        "that use\nit (their waits shrink below the learned bound) while "
        "churn makes the\nbounds looser; the paper conjectured statistical "
        "predictors are the\nmore robust alternative to queue-based ones — "
        "this measures it.\n");
  });
}
