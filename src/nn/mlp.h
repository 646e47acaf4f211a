// Minimal neural-network substrate: dense layers with manual
// backpropagation, tanh activations, and an Adam optimizer. This replaces
// the paper's PyTorch dependency (see DESIGN.md): at the scale of the
// ASQP-RL policy/value networks (an input layer matching the action space
// followed by two small fully-connected layers) a hand-rolled MLP is
// faster than framework dispatch on CPU, and keeps the repository
// self-contained.
#pragma once

#include <cstdint>
#include <vector>

#include "util/random.h"

namespace asqp {
namespace util {
class ThreadPool;
}  // namespace util
namespace nn {

/// \brief One dense layer y = W x + b with gradient accumulators.
///
/// Every kernel takes a batch of samples stored row-major ([batch][dim])
/// and may spread its work over `pool` (null runs on the calling thread).
/// Each output element is accumulated in the order of the plain
/// one-sample loop, so results are bit-identical for every batch size and
/// pool size (DESIGN.md §4f).
struct Linear {
  size_t in = 0;
  size_t out = 0;
  std::vector<float> w;   // row-major [out][in]
  std::vector<float> b;   // [out]
  std::vector<float> dw;  // gradient accumulators
  std::vector<float> db;

  Linear(size_t in_dim, size_t out_dim, util::Rng* rng);

  /// y[s] = W x[s] + b; x is [batch][in], y is [batch][out].
  void Forward(const float* x, size_t batch, float* y,
               util::ThreadPool* pool) const;

  /// dW += dy[s] x[s]^T and db += dy[s] for s in batch order; entries of
  /// dy that are exactly zero are skipped.
  void AccumulateGrad(const float* x, const float* dy, size_t batch,
                      util::ThreadPool* pool);

  /// dx[s] = W^T dy[s]; dy is [batch][out], dx is [batch][in].
  void InputGrad(const float* dy, size_t batch, float* dx,
                 util::ThreadPool* pool) const;

  void ZeroGrad();
};

enum class Activation { kTanh, kRelu, kNone };

/// \brief Multi-layer perceptron with a shared hidden activation and a
/// linear output layer.
class Mlp {
 public:
  /// dims = {input, hidden..., output}.
  Mlp(const std::vector<size_t>& dims, Activation hidden_activation,
      uint64_t seed);

  size_t input_dim() const { return layers_.front().in; }
  size_t output_dim() const { return layers_.back().out; }

  /// The {input, hidden..., output} dimension list this net was built with.
  std::vector<size_t> Dims() const {
    std::vector<size_t> dims;
    dims.push_back(layers_.front().in);
    for (const Linear& l : layers_) dims.push_back(l.out);
    return dims;
  }
  Activation activation() const { return activation_; }

  /// Activations of a forward pass, needed by the backward pass. Each
  /// entry holds `batch` rows of its layer's width.
  struct Cache {
    size_t batch = 0;
    std::vector<std::vector<float>> pre;   // pre-activation per layer
    std::vector<std::vector<float>> post;  // post-activation (post[0] = input)
  };

  /// Forward `batch` inputs (row-major [batch][input_dim]). Returns the
  /// outputs ([batch][output_dim]), which live in `cache`.
  const std::vector<float>& ForwardBatch(const float* x, size_t batch,
                                         Cache* cache,
                                         util::ThreadPool* pool) const;

  /// Backprop dL/d(output) ([batch][output_dim]) through the cached
  /// forward pass, accumulating parameter gradients over the samples in
  /// batch order. The gradient w.r.t. the network input is not computed.
  void BackwardBatch(const Cache& cache, const float* dout,
                     util::ThreadPool* pool);

  /// One-sample forms of the above (a batch of one on the calling thread).
  std::vector<float> Forward(const std::vector<float>& x, Cache* cache) const;
  std::vector<float> Forward(const std::vector<float>& x) const;
  void Backward(const Cache& cache, const std::vector<float>& dout);

  /// dL/d(input) for a cached one-sample forward pass, *without*
  /// accumulating parameter gradients (used when a downstream network's
  /// loss must flow into an upstream network, e.g. VAE decoder -> encoder).
  std::vector<float> BackwardInput(const Cache& cache,
                                   const std::vector<float>& dout) const;

  void ZeroGrad();

  /// Flat views over parameters and their gradients (for the optimizer and
  /// for copying weights to rollout workers). Blocks come in (weights,
  /// bias) pairs per layer; BlockLengths() gives each block's length.
  std::vector<float*> Parameters();
  std::vector<float*> Gradients();
  std::vector<size_t> BlockLengths() const;
  size_t num_parameters() const;

  /// Copy all weights from another identically-shaped MLP.
  void CopyWeightsFrom(const Mlp& other);

  /// True when any weight or bias is NaN/Inf (divergence detection).
  bool HasNonFiniteParameters() const;

  /// True when any accumulated gradient is NaN/Inf.
  bool HasNonFiniteGradients() const;

 private:
  std::vector<Linear> layers_;
  Activation activation_;
};

/// \brief Adam optimizer over a set of parameter blocks.
class Adam {
 public:
  struct Options {
    double lr = 3e-4;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    /// Global gradient-norm clip (0 disables).
    double max_grad_norm = 1.0;
  };

  Adam(Mlp* net, Options options);

  void set_lr(double lr) { options_.lr = lr; }
  double lr() const { return options_.lr; }

  /// Apply one update from the net's accumulated gradients, then zero them.
  /// The element-wise update may run on `pool`; the gradient-norm clip is
  /// reduced serially, so the result does not depend on the pool.
  void Step(util::ThreadPool* pool = nullptr);

  /// First/second-moment accumulators plus the step counter — everything
  /// beyond Options needed to resume optimization deterministically.
  struct State {
    std::vector<float> m;
    std::vector<float> v;
    int64_t t = 0;
  };
  State GetState() const { return {m_, v_, t_}; }
  /// Restore a snapshot taken from an identically-shaped optimizer.
  /// Returns false (and changes nothing) on a size mismatch.
  bool SetState(const State& state) {
    if (state.m.size() != m_.size() || state.v.size() != v_.size()) {
      return false;
    }
    m_ = state.m;
    v_ = state.v;
    t_ = state.t;
    return true;
  }

 private:
  Mlp* net_;
  Options options_;
  std::vector<float> m_;
  std::vector<float> v_;
  int64_t t_ = 0;
};

/// Masked softmax: entries with mask[i] == 0 get probability 0. If every
/// entry is masked the result is all zeros.
std::vector<float> MaskedSoftmax(const std::vector<float>& logits,
                                 const std::vector<uint8_t>& mask);

/// Entropy of a probability vector (natural log).
float Entropy(const std::vector<float>& probs);

/// Sample an index from a probability vector.
size_t SampleCategorical(const std::vector<float>& probs, util::Rng* rng);

}  // namespace nn
}  // namespace asqp
