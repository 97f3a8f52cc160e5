// Ablation A2: sensitivity of the DKF to misspecified measurement-noise
// covariance R, and the recovery delivered by innovation-based adaptive
// estimation (§6 future-work item: "robustness of the KF when the
// statistics of the noise are not known"), here by the protocol's own
// NoiseAdapter servo (docs/adaptive.md).

#include <cmath>
#include <cstdio>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/table.h"
#include "filter/kalman_filter.h"
#include "filter/adaptive_noise.h"
#include "models/model_factory.h"

namespace {

using namespace dkf;

constexpr double kTrueNoiseStddev = 1.0;

/// Runs a constant-signal tracking task with the filter's R set to
/// `assumed_r`; optionally adapts R online with a NoiseAdapter fed every
/// correction. Returns steady-state mean absolute estimation error.
double RunTracking(double assumed_r, bool adapt) {
  ModelNoise noise;
  noise.process_variance = 1e-4;
  noise.measurement_variance = assumed_r;
  const StateModel model = MakeConstantModel(1, noise).value();
  auto filter = model.MakeFilter().value();

  AdaptiveNoiseConfig config;
  config.enabled = adapt;
  // Wide enough for the +-4-decade R sweep in both directions.
  config.r_scale_floor = 1e-5;
  config.r_scale_ceiling = 1e5;
  NoiseAdapter adapter = NoiseAdapter::Create(config, model).value();

  Rng rng(77);
  double err = 0.0;
  int count = 0;
  for (int i = 0; i < 4000; ++i) {
    (void)filter.Predict();
    const Vector z{5.0 + rng.Gaussian(0.0, kTrueNoiseStddev)};
    (void)adapter.OnCorrection(filter, z, i);
    (void)filter.Correct(z);
    (void)adapter.InstallInto(&filter);
    if (i > 2000) {
      err += std::fabs(filter.state()[0] - 5.0);
      ++count;
    }
  }
  return err / count;
}

void PrintFigure() {
  std::printf(
      "Ablation A2: effect of a misspecified R (true noise variance = "
      "1.0) and of innovation-based adaptation.\n\n");
  AsciiTable table({"assumed R", "fixed-R avg err", "adaptive avg err"});
  for (double r : {1e-4, 1e-2, 1.0, 1e2, 1e4}) {
    table.AddRow({StrFormat("%.0e", r),
                  StrFormat("%.4f", RunTracking(r, false)),
                  StrFormat("%.4f", RunTracking(r, true))});
  }
  table.Print();
  std::printf(
      "\nReading the table: with a fixed, badly wrong R the estimate is "
      "either noise-chasing (R too small) or sluggish (R too large); the "
      "adaptive column stays near the correctly-specified error across "
      "the whole sweep.\n");
}

void BM_AdaptiveEstimation(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunTracking(1e-4, true));
  }
}
BENCHMARK(BM_AdaptiveEstimation);

}  // namespace

int main(int argc, char** argv) {
  PrintFigure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
