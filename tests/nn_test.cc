#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "nn/mlp.h"
#include "tests/testing.h"
#include "util/thread_pool.h"

namespace asqp {
namespace nn {
namespace {

TEST(LinearTest, ForwardComputesAffine) {
  util::Rng rng(1);
  Linear layer(2, 2, &rng);
  layer.w = {1.0f, 2.0f,   // row 0
             3.0f, 4.0f};  // row 1
  layer.b = {0.5f, -0.5f};
  const std::vector<float> x = {1.0f, 1.0f};
  std::vector<float> y(2);
  layer.Forward(x.data(), /*batch=*/1, y.data(), /*pool=*/nullptr);
  EXPECT_FLOAT_EQ(y[0], 3.5f);
  EXPECT_FLOAT_EQ(y[1], 6.5f);
}

TEST(LinearTest, BackwardAccumulatesGradients) {
  util::Rng rng(1);
  Linear layer(2, 1, &rng);
  layer.w = {2.0f, -1.0f};
  layer.b = {0.0f};
  const std::vector<float> x = {3.0f, 4.0f};
  const std::vector<float> dy = {1.0f};
  std::vector<float> dx(2);
  layer.AccumulateGrad(x.data(), dy.data(), /*batch=*/1, /*pool=*/nullptr);
  layer.InputGrad(dy.data(), /*batch=*/1, dx.data(), /*pool=*/nullptr);
  EXPECT_FLOAT_EQ(layer.dw[0], 3.0f);
  EXPECT_FLOAT_EQ(layer.dw[1], 4.0f);
  EXPECT_FLOAT_EQ(layer.db[0], 1.0f);
  EXPECT_FLOAT_EQ(dx[0], 2.0f);
  EXPECT_FLOAT_EQ(dx[1], -1.0f);
}

/// Finite-difference gradient check of the full MLP backward pass against
/// the scalar loss L = sum(output).
TEST(MlpTest, GradientCheck) {
  Mlp net({3, 5, 2}, Activation::kTanh, 7);
  const std::vector<float> x = {0.3f, -0.7f, 1.1f};

  // Analytic gradients.
  Mlp::Cache cache;
  const std::vector<float> out = net.Forward(x, &cache);
  net.ZeroGrad();
  net.Backward(cache, std::vector<float>(out.size(), 1.0f));

  auto loss = [&](Mlp& n) {
    const std::vector<float> y = n.Forward(x);
    float total = 0.0f;
    for (float v : y) total += v;
    return total;
  };

  const std::vector<float*> params = net.Parameters();
  const std::vector<float*> grads = net.Gradients();
  const std::vector<size_t> lengths = net.BlockLengths();
  const float eps = 1e-3f;
  size_t checked = 0;
  for (size_t blk = 0; blk < params.size(); ++blk) {
    for (size_t i = 0; i < lengths[blk]; i += 7) {  // spot-check every 7th
      const float orig = params[blk][i];
      params[blk][i] = orig + eps;
      const float hi = loss(net);
      params[blk][i] = orig - eps;
      const float lo = loss(net);
      params[blk][i] = orig;
      const float numeric = (hi - lo) / (2.0f * eps);
      EXPECT_NEAR(grads[blk][i], numeric, 5e-2f)
          << "block " << blk << " index " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 5u);
}

TEST(MlpTest, CopyWeightsProducesIdenticalOutputs) {
  Mlp a({4, 8, 3}, Activation::kTanh, 1);
  Mlp b({4, 8, 3}, Activation::kTanh, 2);
  const std::vector<float> x = {1.0f, 2.0f, -1.0f, 0.5f};
  EXPECT_NE(a.Forward(x), b.Forward(x));
  b.CopyWeightsFrom(a);
  EXPECT_EQ(a.Forward(x), b.Forward(x));
}

TEST(MlpTest, NumParametersMatchesShape) {
  Mlp net({3, 5, 2}, Activation::kTanh, 3);
  // (3*5 + 5) + (5*2 + 2) = 20 + 12
  EXPECT_EQ(net.num_parameters(), 32u);
}

TEST(AdamTest, FitsLinearRegression) {
  // y = 2x - 1 from noisy samples; a 1-layer net must drive MSE near 0.
  Mlp net({1, 1}, Activation::kNone, 5);
  Adam::Options opts;
  opts.lr = 0.05;
  Adam adam(&net, opts);
  util::Rng rng(11);
  double final_loss = 1e9;
  for (int step = 0; step < 500; ++step) {
    net.ZeroGrad();
    double loss = 0.0;
    for (int s = 0; s < 8; ++s) {
      const float x = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
      const float target = 2.0f * x - 1.0f;
      Mlp::Cache cache;
      const float y = net.Forward({x}, &cache)[0];
      const float err = y - target;
      loss += 0.5 * err * err;
      net.Backward(cache, {err / 8.0f});
    }
    adam.Step();
    final_loss = loss / 8.0;
  }
  EXPECT_LT(final_loss, 1e-3);
}

// ---------------------------------------------------------------------------
// Kernel oracle: the one-sample scalar loops that the batched kernels
// replaced, kept here verbatim. The batched kernels must match them bit for
// bit for every batch size, pool size and activation.
// ---------------------------------------------------------------------------

struct RefLayer {
  size_t in;
  size_t out;
  const float* w;
  const float* b;
  float* dw;
  float* db;
};

std::vector<RefLayer> RefLayers(Mlp* net) {
  const std::vector<size_t> dims = net->Dims();
  const std::vector<float*> params = net->Parameters();
  const std::vector<float*> grads = net->Gradients();
  std::vector<RefLayer> layers;
  for (size_t l = 0; l + 1 < dims.size(); ++l) {
    layers.push_back({dims[l], dims[l + 1], params[2 * l], params[2 * l + 1],
                      grads[2 * l], grads[2 * l + 1]});
  }
  return layers;
}

float RefActivate(float v, Activation a) {
  switch (a) {
    case Activation::kTanh: return std::tanh(v);
    case Activation::kRelu: return v > 0.0f ? v : 0.0f;
    case Activation::kNone: return v;
  }
  return v;
}

float RefActivateGrad(float pre, float post, Activation a) {
  switch (a) {
    case Activation::kTanh: return 1.0f - post * post;
    case Activation::kRelu: return pre > 0.0f ? 1.0f : 0.0f;
    case Activation::kNone: return 1.0f;
  }
  return 1.0f;
}

struct RefCache {
  std::vector<std::vector<float>> pre;
  std::vector<std::vector<float>> post;
};

std::vector<float> RefForward(const std::vector<RefLayer>& layers,
                              Activation a, const std::vector<float>& x,
                              RefCache* cache) {
  cache->pre.clear();
  cache->post = {x};
  std::vector<float> cur = x;
  for (size_t l = 0; l < layers.size(); ++l) {
    const RefLayer& layer = layers[l];
    std::vector<float> y(layer.out, 0.0f);
    for (size_t o = 0; o < layer.out; ++o) {
      const float* row = &layer.w[o * layer.in];
      float sum = layer.b[o];
      for (size_t i = 0; i < layer.in; ++i) sum += row[i] * cur[i];
      y[o] = sum;
    }
    cache->pre.push_back(y);
    if (l + 1 < layers.size()) {
      for (float& v : y) v = RefActivate(v, a);
    }
    cur = y;
    cache->post.push_back(cur);
  }
  return cur;
}

/// Accumulates dW/db like the one-sample backward; returns dL/d(input).
std::vector<float> RefBackward(const std::vector<RefLayer>& layers,
                               Activation a, const RefCache& cache,
                               std::vector<float> grad) {
  for (size_t l = layers.size(); l-- > 0;) {
    const RefLayer& layer = layers[l];
    if (l + 1 < layers.size()) {
      for (size_t i = 0; i < grad.size(); ++i) {
        grad[i] *= RefActivateGrad(cache.pre[l][i], cache.post[l + 1][i], a);
      }
    }
    const std::vector<float>& x = cache.post[l];
    std::vector<float> dx(layer.in, 0.0f);
    for (size_t o = 0; o < layer.out; ++o) {
      const float g = grad[o];
      if (g == 0.0f) continue;
      float* drow = &layer.dw[o * layer.in];
      const float* row = &layer.w[o * layer.in];
      layer.db[o] += g;
      for (size_t i = 0; i < layer.in; ++i) {
        drow[i] += g * x[i];
        dx[i] += g * row[i];
      }
    }
    grad = std::move(dx);
  }
  return grad;
}

void RefAdamStep(Mlp* net, const Adam::Options& options, int64_t t,
                 std::vector<float>* m_state, std::vector<float>* v_state) {
  std::vector<float*> params = net->Parameters();
  std::vector<float*> grads = net->Gradients();
  const std::vector<size_t> lengths = net->BlockLengths();
  double norm_sq = 0.0;
  for (size_t blk = 0; blk < grads.size(); ++blk) {
    for (size_t i = 0; i < lengths[blk]; ++i) {
      norm_sq += static_cast<double>(grads[blk][i]) * grads[blk][i];
    }
  }
  float scale = 1.0f;
  if (options.max_grad_norm > 0.0) {
    const double norm = std::sqrt(norm_sq);
    if (norm > options.max_grad_norm) {
      scale = static_cast<float>(options.max_grad_norm / (norm + 1e-12));
    }
  }
  const double bc1 = 1.0 - std::pow(options.beta1, static_cast<double>(t));
  const double bc2 = 1.0 - std::pow(options.beta2, static_cast<double>(t));
  size_t offset = 0;
  for (size_t blk = 0; blk < grads.size(); ++blk) {
    for (size_t i = 0; i < lengths[blk]; ++i) {
      const float g = grads[blk][i] * scale;
      float& m = (*m_state)[offset + i];
      float& v = (*v_state)[offset + i];
      m = static_cast<float>(options.beta1 * m + (1.0 - options.beta1) * g);
      v = static_cast<float>(options.beta2 * v +
                             (1.0 - options.beta2) * g * g);
      const double mhat = m / bc1;
      const double vhat = v / bc2;
      params[blk][i] -= static_cast<float>(options.lr * mhat /
                                           (std::sqrt(vhat) + options.eps));
      grads[blk][i] = 0.0f;
    }
    offset += lengths[blk];
  }
}

::testing::AssertionResult BitEqual(const float* a, const float* b,
                                    size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << " of " << n << ": " << a[i] << " vs "
             << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult BitEqual(const std::vector<float>& a,
                                    const std::vector<float>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  return BitEqual(a.data(), b.data(), a.size());
}

/// Uniform values in [-1, 1), with about `zero_fraction` of them exactly 0.
std::vector<float> RandomValues(size_t n, double zero_fraction,
                                util::Rng* rng) {
  std::vector<float> values(n);
  for (float& v : values) {
    v = rng->UniformDouble() < zero_fraction
            ? 0.0f
            : static_cast<float>(rng->UniformDouble(-1.0, 1.0));
  }
  return values;
}

/// A net from `seed` with nonzero biases (fresh layers start at zero bias,
/// which would hide where a kernel adds it).
Mlp MakeNet(const std::vector<size_t>& dims, Activation act, uint64_t seed) {
  Mlp net(dims, act, seed);
  util::Rng rng(seed);
  const std::vector<float*> params = net.Parameters();
  const std::vector<size_t> lengths = net.BlockLengths();
  for (size_t blk = 1; blk < params.size(); blk += 2) {
    const std::vector<float> b = RandomValues(lengths[blk], 0.0, &rng);
    std::copy(b.begin(), b.end(), params[blk]);
  }
  return net;
}

/// Null for 0 threads (the calling thread only), else a pool.
std::unique_ptr<util::ThreadPool> MakePool(size_t threads) {
  if (threads == 0) return nullptr;
  return std::make_unique<util::ThreadPool>(threads);
}

constexpr size_t kOracleBatches[] = {0, 1, 7, 8, 64, 65};
constexpr size_t kOraclePools[] = {0, 1, 2, 4, 8};

/// Forward and backward of a batch against the one-sample loops, for one
/// network shape and activation, across every batch size and pool size.
void CheckBatchKernels(const std::vector<size_t>& dims, Activation act) {
  for (size_t batch : kOracleBatches) {
    SCOPED_TRACE(::testing::Message() << "batch " << batch);
    util::Rng rng(1000 + batch);
    const std::vector<float> x = RandomValues(batch * dims.front(), 0.1, &rng);
    // Exact zeros in dL/dout exercise the kernels' zero-gain skip.
    const std::vector<float> dout =
        RandomValues(batch * dims.back(), 0.3, &rng);

    // Oracle: one sample at a time, gradients accumulated in order.
    Mlp ref_net = MakeNet(dims, act, 11);
    const std::vector<RefLayer> ref_layers = RefLayers(&ref_net);
    std::vector<float> ref_out;
    for (size_t s = 0; s < batch; ++s) {
      const std::vector<float> xs(x.begin() + s * dims.front(),
                                  x.begin() + (s + 1) * dims.front());
      const std::vector<float> dys(dout.begin() + s * dims.back(),
                                   dout.begin() + (s + 1) * dims.back());
      RefCache cache;
      const std::vector<float> y = RefForward(ref_layers, act, xs, &cache);
      ref_out.insert(ref_out.end(), y.begin(), y.end());
      RefBackward(ref_layers, act, cache, dys);
    }

    for (size_t threads : kOraclePools) {
      SCOPED_TRACE(::testing::Message() << "pool threads " << threads);
      std::unique_ptr<util::ThreadPool> pool = MakePool(threads);
      Mlp net = MakeNet(dims, act, 11);
      Mlp::Cache cache;
      const std::vector<float>& out =
          net.ForwardBatch(x.data(), batch, &cache, pool.get());
      EXPECT_TRUE(BitEqual(out, ref_out));
      net.BackwardBatch(cache, dout.data(), pool.get());
      const std::vector<float*> grads = net.Gradients();
      const std::vector<float*> ref_grads = ref_net.Gradients();
      const std::vector<size_t> lengths = net.BlockLengths();
      for (size_t blk = 0; blk < grads.size(); ++blk) {
        EXPECT_TRUE(BitEqual(grads[blk], ref_grads[blk], lengths[blk]))
            << "gradient block " << blk;
      }
    }
  }
}

TEST(BatchKernelOracleTest, TanhMatchesOneSampleLoops) {
  CheckBatchKernels({97, 64, 48, 33}, Activation::kTanh);
}

TEST(BatchKernelOracleTest, ReluMatchesOneSampleLoops) {
  CheckBatchKernels({97, 64, 48, 33}, Activation::kRelu);
}

TEST(BatchKernelOracleTest, NoActivationMatchesOneSampleLoops) {
  CheckBatchKernels({97, 64, 48, 33}, Activation::kNone);
}

TEST(BatchKernelOracleTest, OutputWidthOneMatchesOneSampleLoops) {
  // The critic's shape: one output per sample.
  CheckBatchKernels({97, 64, 48, 1}, Activation::kTanh);
}

TEST(BatchKernelOracleTest, OneSampleWrappersMatchOneSampleLoops) {
  // Forward/Backward/BackwardInput (Policy::Act, the VAE) are batches of
  // one; BackwardInput must also match the oracle's input gradient.
  const std::vector<size_t> dims = {41, 24, 17};
  util::Rng rng(3);
  const std::vector<float> x = RandomValues(dims.front(), 0.1, &rng);
  const std::vector<float> dout = RandomValues(dims.back(), 0.3, &rng);
  Mlp ref_net = MakeNet(dims, Activation::kTanh, 5);
  RefCache ref_cache;
  const std::vector<float> ref_out =
      RefForward(RefLayers(&ref_net), Activation::kTanh, x, &ref_cache);
  const std::vector<float> ref_dx =
      RefBackward(RefLayers(&ref_net), Activation::kTanh, ref_cache, dout);

  Mlp net = MakeNet(dims, Activation::kTanh, 5);
  Mlp::Cache cache;
  EXPECT_TRUE(BitEqual(net.Forward(x, &cache), ref_out));
  EXPECT_TRUE(BitEqual(net.Forward(x), ref_out));
  EXPECT_TRUE(BitEqual(net.BackwardInput(cache, dout), ref_dx));
  net.Backward(cache, dout);
  const std::vector<float*> grads = net.Gradients();
  const std::vector<float*> ref_grads = ref_net.Gradients();
  const std::vector<size_t> lengths = net.BlockLengths();
  for (size_t blk = 0; blk < grads.size(); ++blk) {
    EXPECT_TRUE(BitEqual(grads[blk], ref_grads[blk], lengths[blk]))
        << "gradient block " << blk;
  }
}

TEST(BatchKernelOracleTest, AdamStepMatchesSerialLoop) {
  // Large enough (about 47k parameters) for the update to use the pool.
  const std::vector<size_t> dims = {300, 128, 64};
  for (double max_grad_norm : {0.0, 1e-3}) {  // clip off / clip binding
    for (size_t threads : kOraclePools) {
      SCOPED_TRACE(::testing::Message() << "pool threads " << threads
                                        << ", max_grad_norm "
                                        << max_grad_norm);
      std::unique_ptr<util::ThreadPool> pool = MakePool(threads);
      Adam::Options options;
      options.lr = 1e-2;
      options.max_grad_norm = max_grad_norm;
      Mlp net(dims, Activation::kTanh, 9);
      Mlp ref_net(dims, Activation::kTanh, 9);
      Adam adam(&net, options);
      std::vector<float> ref_m(net.num_parameters(), 0.0f);
      std::vector<float> ref_v(net.num_parameters(), 0.0f);
      util::Rng rng(21);
      for (int64_t t = 1; t <= 3; ++t) {
        const std::vector<float*> grads = net.Gradients();
        const std::vector<float*> ref_grads = ref_net.Gradients();
        const std::vector<size_t> lengths = net.BlockLengths();
        for (size_t blk = 0; blk < grads.size(); ++blk) {
          const std::vector<float> g = RandomValues(lengths[blk], 0.2, &rng);
          std::copy(g.begin(), g.end(), grads[blk]);
          std::copy(g.begin(), g.end(), ref_grads[blk]);
        }
        adam.Step(pool.get());
        RefAdamStep(&ref_net, options, t, &ref_m, &ref_v);
      }
      const std::vector<float*> params = net.Parameters();
      const std::vector<float*> ref_params = ref_net.Parameters();
      const std::vector<float*> grads = net.Gradients();
      const std::vector<size_t> lengths = net.BlockLengths();
      for (size_t blk = 0; blk < params.size(); ++blk) {
        EXPECT_TRUE(BitEqual(params[blk], ref_params[blk], lengths[blk]))
            << "parameter block " << blk;
        EXPECT_TRUE(std::all_of(grads[blk], grads[blk] + lengths[blk],
                                [](float g) { return g == 0.0f; }));
      }
      const Adam::State state = adam.GetState();
      EXPECT_EQ(state.t, 3);
      EXPECT_TRUE(BitEqual(state.m, ref_m));
      EXPECT_TRUE(BitEqual(state.v, ref_v));
    }
  }
}

TEST(MaskedSoftmaxTest, RespectsMask) {
  const std::vector<float> logits = {1.0f, 100.0f, 2.0f};
  const std::vector<uint8_t> mask = {1, 0, 1};
  const std::vector<float> probs = MaskedSoftmax(logits, mask);
  EXPECT_FLOAT_EQ(probs[1], 0.0f);
  EXPECT_NEAR(probs[0] + probs[2], 1.0f, 1e-6f);
  EXPECT_GT(probs[2], probs[0]);
}

TEST(MaskedSoftmaxTest, AllMaskedIsZeros) {
  const std::vector<float> probs = MaskedSoftmax({1.0f, 2.0f}, {0, 0});
  EXPECT_FLOAT_EQ(probs[0], 0.0f);
  EXPECT_FLOAT_EQ(probs[1], 0.0f);
}

TEST(MaskedSoftmaxTest, NumericallyStableForLargeLogits) {
  const std::vector<float> probs =
      MaskedSoftmax({1000.0f, 1000.0f}, {1, 1});
  EXPECT_NEAR(probs[0], 0.5f, 1e-6f);
  EXPECT_FALSE(std::isnan(probs[0]));
}

TEST(EntropyTest, UniformIsMaximal) {
  const float uniform = Entropy({0.25f, 0.25f, 0.25f, 0.25f});
  const float peaked = Entropy({0.97f, 0.01f, 0.01f, 0.01f});
  EXPECT_NEAR(uniform, std::log(4.0f), 1e-5f);
  EXPECT_LT(peaked, uniform);
  EXPECT_FLOAT_EQ(Entropy({1.0f, 0.0f}), 0.0f);
}

TEST(SampleCategoricalTest, MatchesDistribution) {
  util::Rng rng(13);
  const std::vector<float> probs = {0.1f, 0.7f, 0.2f};
  std::vector<int> counts(3, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[SampleCategorical(probs, &rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.7, 0.02);
}

TEST(SampleCategoricalTest, ZeroProbabilityNeverSampled) {
  util::Rng rng(17);
  const std::vector<float> probs = {0.0f, 1.0f, 0.0f};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(SampleCategorical(probs, &rng), 1u);
  }
}

}  // namespace
}  // namespace nn
}  // namespace asqp
