#include "layers.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "fft/fft.h"
#include "layout/raster.h"
#include "litho/eig.h"
#include "litho/kernels.h"
#include "litho/tcc.h"
#include "nn/resnet.h"
#include "sampling/training_set.h"

namespace ldmo::perfbench {

namespace {

// Single-process baselines from the ROADMAP table (4-core AVX-512 host,
// 64 px model): build_socs_kernels 368 ms, BM_IltStep 1.69 ms at 64 px and
// 7.38 ms at 128 px. The traced run reports its own figure over these.
constexpr double kBaselineKernelBuildMs = 368.0;
constexpr double kBaselineIltStepMs64 = 1.69;
constexpr double kBaselineIltStepMs128 = 7.38;

// CnnPredictor's fixed inference batch.
constexpr std::size_t kCnnBatch = 16;

/// Samples of one named call.
class Sampler {
 public:
  Sampler(std::string name, double scale, std::string unit)
      : name_(std::move(name)),
        scale_(scale),
        unit_(std::move(unit)) {}

  template <typename Fn>
  void time(Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    samples_.push_back(seconds_since(t0) * scale_);
  }

  double median() const { return quantile(samples_, 0.5); }

  void report(RunResult& out) const {
    out.add(name_, median(), unit_,
            static_cast<long long>(samples_.size()));
  }

 private:
  std::string name_;
  double scale_;
  std::string unit_;
  std::vector<double> samples_;
};

}  // namespace

void measure_layers(const LayerInputs& in, RunResult& out) {
  const litho::LithoConfig& config = in.simulator.config();
  const int n = config.grid_size;
  const int setup_reps = in.smoke ? 1 : 3;
  const int reps = in.smoke ? 1 : 8;

  // Set-up layers: TCC assembly, its eigensolve and an uncached kernel
  // build (the three move setup_s on every workload).
  Sampler tcc("litho.tcc_ms", 1e3, "ms");
  Sampler eig("litho.eig_ms", 1e3, "ms");
  Sampler kernel_build("litho.kernel_build_ms", 1e3, "ms");
  for (int r = 0; r < setup_reps; ++r) {
    litho::TccResult matrix;
    tcc.time([&] { matrix = litho::build_tcc(config); });
    eig.time([&] {
      const litho::HermitianEig e =
          litho::hermitian_eigendecompose(matrix.matrix, matrix.dimension());
      if (e.eigenvalues.empty()) out.fail_check("eigensolve returned nothing");
    });
    kernel_build.time([&] {
      const litho::SocsKernels k = litho::build_socs_kernels(config);
      if (k.kernel_count() == 0) out.fail_check("kernel build kept nothing");
    });
  }

  Sampler aerial_forward("litho.aerial_forward_ms", 1e3, "ms");
  Sampler aerial_backprop("litho.aerial_backprop_ms", 1e3, "ms");
  Sampler print_evaluate("litho.print_evaluate_ms", 1e3, "ms");
  Sampler fft_forward("fft.forward_2d_us", 1e6, "us");
  Sampler fft_forward_real("fft.forward_real_2d_us", 1e6, "us");
  Sampler ilt_step("opc.ilt_step_ms", 1e3, "ms");
  Sampler finalize("opc.finalize_ms", 1e3, "ms");
  Sampler violation_check("opc.violation_check_ms", 1e3, "ms");
  Sampler generate("mpl.generate_ms", 1e3, "ms");
  Sampler score_batch("core.score_batch_ms", 1e3, "ms");
  Sampler nn_forward("nn.forward_ms", 1e3, "ms");

  const fft::Fft2DPlan& plan = fft::plan_for(n, n);
  nn::ResNetRegressor network{nn::ResNetConfig{}};
  const int image_size = network.config().input_size;

  for (std::size_t c = 0; c < in.clips.size(); ++c) {
    const layout::Layout& clip = in.clips[c];
    const core::LdmoResult& result = in.results[c];
    const GridF& mask = result.ilt.mask1;

    GridF intensity;
    in.simulator.aerial().intensity(mask, intensity);  // warm the out-param
    for (int r = 0; r < reps; ++r)
      aerial_forward.time([&] { in.simulator.aerial().intensity(mask, intensity); });

    litho::AerialFields fields;
    GridF gradient;
    for (int r = 0; r < reps; ++r)
      aerial_backprop.time([&] {
        in.simulator.aerial().intensity_with_fields(mask, fields);
        in.simulator.aerial().backpropagate(fields.intensity, fields, gradient);
      });

    for (int r = 0; r < std::max(1, reps / 2); ++r)
      print_evaluate.time([&] {
        const GridF printed =
            in.simulator.print(result.ilt.mask1, result.ilt.mask2);
        const litho::PrintabilityReport report =
            in.simulator.evaluate(printed, clip);
        if (report.score() != result.ilt.report.score())
          out.fail_check(clip.name + ": layer re-print changed the score");
      });

    const fft::GridC spectrum_input = fft::to_complex(mask);
    fft::GridC spectrum;
    for (int r = 0; r < 4 * reps; ++r) {
      spectrum = spectrum_input;
      fft_forward.time([&] { plan.forward(spectrum); });
      fft_forward_real.time([&] { plan.forward_real(mask, spectrum); });
    }

    const GridF target = layout::rasterize_target(clip, n);
    opc::IltState state = in.engine.init_state(clip, result.chosen);
    opc::IltScratch scratch;
    in.engine.step(state, target, scratch);  // warm the scratch shapes
    for (int r = 0; r < reps; ++r)
      ilt_step.time([&] { in.engine.step(state, target, scratch); });
    finalize.time([&] {
      const opc::IltResult finished = in.engine.finalize(state, clip);
      if (finished.mask1.size() == 0) out.fail_check("finalize gave no mask");
    });
    for (int r = 0; r < 2; ++r)
      violation_check.time([&] {
        const litho::PrintabilityReport report = in.engine.evaluate(state, clip);
        if (report.l2 < 0.0) out.fail_check("negative L2 from evaluate");
      });

    mpl::GenerationResult generated;
    for (int r = 0; r < 2; ++r)
      generate.time([&] {
        generated = mpl::generate_decompositions(clip, in.generation);
      });
    const std::vector<layout::Assignment>& candidates = generated.candidates;
    for (int r = 0; r < 2; ++r)
      score_batch.time([&] {
        const std::vector<double> scores =
            in.predictor.score_batch(clip, candidates);
        if (scores.size() != candidates.size())
          out.fail_check("score_batch size mismatch");
      });

    // One inference batch of this clip's decomposition images.
    const std::size_t count = std::min(kCnnBatch, candidates.size());
    if (count == 0) continue;
    const std::size_t pixels =
        static_cast<std::size_t>(image_size) * static_cast<std::size_t>(image_size);
    nn::Tensor batch({static_cast<int>(count), 1, image_size, image_size});
    for (std::size_t i = 0; i < count; ++i) {
      const nn::Tensor image =
          sampling::decomposition_tensor(clip, candidates[i], image_size);
      std::memcpy(batch.data() + i * pixels, image.data(), pixels * sizeof(float));
    }
    for (int r = 0; r < 2; ++r)
      nn_forward.time([&] {
        const nn::Tensor scores = network.forward(batch, /*training=*/false);
        if (scores.shape().empty()) out.fail_check("empty CNN output");
      });
  }

  for (const Sampler* s : {&tcc, &eig, &kernel_build})
    s->report(out);
  out.add("litho.kernel_build_baseline_ratio",
          kernel_build.median() / kBaselineKernelBuildMs, "ratio", 1);
  for (const Sampler* s :
       {&aerial_forward, &aerial_backprop, &print_evaluate, &fft_forward,
        &fft_forward_real, &ilt_step, &finalize, &violation_check, &generate,
        &score_batch, &nn_forward})
    s->report(out);
  const double step_baseline =
      n <= 64 ? kBaselineIltStepMs64 : kBaselineIltStepMs128;
  out.add("opc.ilt_step_baseline_ratio", ilt_step.median() / step_baseline,
          "ratio", 1);
}

}  // namespace ldmo::perfbench
