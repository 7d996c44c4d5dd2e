// Ablation: arrival-rate predictors — the paper's future work ("more
// accurate prediction method based on historical data collected over more
// intervals", Sec. V-B) implemented in src/predict, measured here as
// one-step forecast accuracy on the true diurnal per-channel rates of the
// paper workload (no simulation noise). The end-to-end counterpart, the
// forecaster axis driving the controller through full simulations with
// every forecaster facing the byte-identical workload, is the
// ablation_prediction profile: `tool_sweep --golden=ablation_prediction
// --paper`.
//
// Flags: --days=4 --seed=42

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "expr/config.h"
#include "expr/flags.h"
#include "predict/accuracy.h"
#include "predict/forecaster.h"
#include "workload/scenario.h"

using namespace cloudmedia;

namespace {

predict::ForecasterSpec spec_of(predict::ForecasterKind kind) {
  predict::ForecasterSpec spec;
  spec.kind = kind;
  spec.period = 24;  // hourly cadence, daily season
  return spec;
}

/// True mean rate of `channel` over one hour (1-minute resolution).
double true_hourly_rate(const workload::Workload& workload, int channel,
                        double t0) {
  double acc = 0.0;
  for (int m = 0; m < 60; ++m) {
    acc += workload.channel_rate(channel, t0 + 60.0 * m);
  }
  return acc / 60.0;
}

int run(int argc, char** argv) {
  const expr::Flags flags(argc, argv);
  const int days = flags.get("days", 4);
  const auto seed = static_cast<std::uint64_t>(flags.get_ll("seed", 42));

  const expr::ExperimentConfig base =
      expr::ExperimentConfig::make_default(core::StreamingMode::kClientServer);
  const workload::Workload workload(base.workload, seed);

  std::printf("One-step accuracy on true per-channel hourly rates "
              "(%d day(s), %d channels)\n",
              days, workload.num_channels());
  std::printf("%-16s %10s %10s %10s %10s %9s\n", "forecaster",
              "MAE(/s)", "RMSE(/s)", "MAPE", "bias(/s)", "under-%");

  for (const predict::ForecasterKind kind : predict::all_forecaster_kinds()) {
    predict::ForecastScore score;
    for (int c = 0; c < workload.num_channels(); ++c) {
      const auto f = predict::make_forecaster(spec_of(kind));
      for (int h = 0; h < 24 * days; ++h) {
        const double actual = true_hourly_rate(workload, c, 3600.0 * h);
        if (h >= 24) score.add(f->forecast(), actual);  // skip day-1 warmup
        f->observe(actual);
      }
    }
    std::printf("%-16s %10.4f %10.4f %9.1f%% %+10.4f %8.1f%%\n",
                predict::to_string(kind).c_str(), score.mae(), score.rmse(),
                100.0 * score.mape(), score.bias(),
                100.0 * score.under_fraction());
  }
  std::printf("\nreading: on a repeating diurnal signal the seasonal "
              "forecasters should cut MAE well below persistence (the "
              "paper's predictor), which trails every ramp by one hour.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return expr::run_main(argc, argv, run); }
