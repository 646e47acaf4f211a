#include "nn/mlp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/fault_injector.h"
#include "util/thread_pool.h"

// The trained policy is pinned bit for bit (tests/rl_test.cc), and every
// kernel below relies on the compiler evaluating each multiply and add as
// written: -ffast-math would reassociate the ordered sums, and contracting
// a*b+c into one FMA rounding would change every accumulation step. Either
// would silently change which tuples the agent picks. src/CMakeLists.txt
// therefore builds src/nn and src/rl with -ffp-contract=off (a stray
// -march=native or -mfma cannot fuse anything), and fast-math is refused
// outright.
#ifdef __FAST_MATH__
#error "src/nn must not be built with -ffast-math: it changes the trained weights"
#endif

namespace asqp {
namespace nn {

namespace {

// Kernel tile shapes. Every output element is produced by exactly one tile,
// in the same order whatever the shape, so these only affect speed.
constexpr size_t kOutTile = 8;     // outputs per forward tile
constexpr size_t kSampleTile = 8;  // samples per forward tile (2 vectors)
constexpr size_t kWidthTile = 32;  // elements per gradient tile (8 vectors)
constexpr size_t kAdamChunk = 1 << 12;
// Below this many multiply-adds a kernel stays on the calling thread.
constexpr size_t kMinParallelWork = 1 << 15;

// Four float lanes (the GCC/Clang vector extension). Lane arithmetic is
// plain IEEE single precision, the same operations as the scalar code. The
// tiles spell the vectors out because GCC's -O3 vectorizer turned the
// equivalent plain loops into code about 3x slower than at -O2.
typedef float Float4 __attribute__((vector_size(16)));

template <typename V>
constexpr size_t kLanes = sizeof(V) / sizeof(float);

inline void Broadcast(float s, float* v) { *v = s; }
inline void Broadcast(float s, Float4* v) { *v = Float4{s, s, s, s}; }
inline void Load(const float* p, float* v) { *v = *p; }
inline void Load(const float* p, Float4* v) { std::memcpy(v, p, sizeof(*v)); }
inline void Store(float v, float* p) { *p = v; }
inline void Store(const Float4& v, float* p) { std::memcpy(p, &v, sizeof(v)); }

/// Runs fn(t) for t in [0, n) on `pool`, or inline when there is none.
/// Named like ThreadPool::ParallelFor so asqp-lint checks the lambdas
/// passed here: each task must write only its own output slice.
template <typename Fn>
void ParallelFor(util::ThreadPool* pool, size_t n, const Fn& fn) {
  if (pool == nullptr || n <= 1) {
    for (size_t t = 0; t < n; ++t) fn(t);
    return;
  }
  pool->ParallelFor(n, fn);
}

/// How many tasks to split `units` independent work units, `work`
/// multiply-adds in all, into: one without a pool or for little work,
/// else a few per participating thread for load balance.
size_t NumTasks(const util::ThreadPool* pool, size_t units, size_t work) {
  if (pool == nullptr || work < kMinParallelWork || units == 0) return 1;
  return std::min(units, 8 * (pool->num_threads() + 1));
}

/// Forward tile: y = b[r] + w[r][i] * x[i] summed over i ascending, for
/// kOut outputs and kVecs vectors of V sample lanes. Input i of lane c is
/// x[i * x_step + c]; sample rows of y are y_stride apart.
template <size_t kOut, size_t kVecs, typename V>
void ForwardTile(const float* w, const float* b, size_t in, const float* x,
                 size_t x_step, float* y, size_t y_stride) {
  constexpr size_t kL = kLanes<V>;
  V acc[kOut][kVecs];
  for (size_t r = 0; r < kOut; ++r) {
    for (size_t v = 0; v < kVecs; ++v) Broadcast(b[r], &acc[r][v]);
  }
  for (size_t i = 0; i < in; ++i) {
    V xv[kVecs];
    for (size_t v = 0; v < kVecs; ++v) Load(x + i * x_step + v * kL, &xv[v]);
    for (size_t r = 0; r < kOut; ++r) {
      const float wv = w[r * in + i];
      for (size_t v = 0; v < kVecs; ++v) acc[r][v] += wv * xv[v];
    }
  }
  for (size_t r = 0; r < kOut; ++r) {
    float lanes[kVecs * kL];
    for (size_t v = 0; v < kVecs; ++v) Store(acc[r][v], lanes + v * kL);
    for (size_t c = 0; c < kVecs * kL; ++c) y[c * y_stride + r] = lanes[c];
  }
}

/// Forward of outputs [o, o + kOut) for sample group g: the kSampleTile
/// samples of panel g of `xt`, or, for g == panels, the leftover samples
/// of the row-major input `x`.
template <size_t kOut>
void ForwardGroup(const Linear& layer, size_t o, size_t g, const float* x,
                  const float* xt, size_t panels, size_t batch, float* y) {
  const float* w = layer.w.data() + o * layer.in;
  const float* b = layer.b.data() + o;
  if (g < panels) {
    ForwardTile<kOut, kSampleTile / kLanes<Float4>, Float4>(
        w, b, layer.in, xt + g * layer.in * kSampleTile, kSampleTile,
        y + g * kSampleTile * layer.out + o, layer.out);
    return;
  }
  for (size_t s = panels * kSampleTile; s < batch; ++s) {
    ForwardTile<kOut, 1, float>(w, b, layer.in, x + s * layer.in, 1,
                                y + s * layer.out + o, layer.out);
  }
}

/// The nonzero terms of one ordered sum: gain k multiplies source row
/// rows[k], and the terms are added in k order.
struct Terms {
  std::vector<size_t> rows;
  std::vector<float> gains;

  void Clear() {
    rows.clear();
    gains.clear();
  }
  void Add(size_t row, float gain) {
    rows.push_back(row);
    gains.push_back(gain);
  }
};

/// dst[j] += gains[k] * src[rows[k] * stride + j] for k ascending, for the
/// kVecs vectors of V lanes starting at dst.
template <size_t kVecs, typename V>
void AxpyTile(const float* src, size_t stride, const Terms& terms,
              float* dst) {
  constexpr size_t kL = kLanes<V>;
  V acc[kVecs];
  for (size_t v = 0; v < kVecs; ++v) Load(dst + v * kL, &acc[v]);
  for (size_t k = 0; k < terms.rows.size(); ++k) {
    const float g = terms.gains[k];
    const float* row = src + terms.rows[k] * stride;
    for (size_t v = 0; v < kVecs; ++v) {
      V term;
      Load(row + v * kL, &term);
      acc[v] += g * term;
    }
  }
  for (size_t v = 0; v < kVecs; ++v) Store(acc[v], dst + v * kL);
}

/// AxpyTile over dst[0, width).
void AxpyRows(const float* src, size_t stride, size_t width,
              const Terms& terms, float* dst) {
  constexpr size_t kL = kLanes<Float4>;
  size_t j = 0;
  for (; j + kWidthTile <= width; j += kWidthTile) {
    AxpyTile<kWidthTile / kL, Float4>(src + j, stride, terms, dst + j);
  }
  for (; j + kL <= width; j += kL) {
    AxpyTile<1, Float4>(src + j, stride, terms, dst + j);
  }
  for (; j < width; ++j) AxpyTile<1, float>(src + j, stride, terms, dst + j);
}

}  // namespace

Linear::Linear(size_t in_dim, size_t out_dim, util::Rng* rng)
    : in(in_dim), out(out_dim) {
  w.resize(in * out);
  b.assign(out, 0.0f);
  dw.assign(in * out, 0.0f);
  db.assign(out, 0.0f);
  // Xavier/Glorot initialization.
  const double bound = std::sqrt(6.0 / static_cast<double>(in + out));
  for (float& weight : w) {
    weight = static_cast<float>(rng->UniformDouble(-bound, bound));
  }
}

void Linear::Forward(const float* x, size_t batch, float* y,
                     util::ThreadPool* pool) const {
  if (batch == 0) return;
  // Whole sample tiles read their inputs from panels laid out
  // [tile][in][kSampleTile], so the lanes of one input are contiguous;
  // leftover samples read the row-major input as is.
  const size_t panels = batch / kSampleTile;
  std::vector<float> xt(panels * in * kSampleTile);
  for (size_t p = 0; p < panels; ++p) {
    float* panel = xt.data() + p * in * kSampleTile;
    for (size_t c = 0; c < kSampleTile; ++c) {
      const float* row = x + (p * kSampleTile + c) * in;
      for (size_t i = 0; i < in; ++i) panel[i * kSampleTile + c] = row[i];
    }
  }
  // A task owns one sample group (a panel, or the leftover samples) for
  // one range of output tiles.
  const size_t groups = panels + (batch % kSampleTile != 0 ? 1 : 0);
  const size_t tiles = (out + kOutTile - 1) / kOutTile;
  const size_t target = NumTasks(pool, groups * tiles, batch * in * out);
  const size_t chunks = std::min(tiles, (target + groups - 1) / groups);
  ParallelFor(pool, groups * chunks, [&](size_t t) {
    const size_t g = t / chunks;
    const size_t chunk = t % chunks;
    const size_t end = std::min(out, (chunk + 1) * tiles / chunks * kOutTile);
    size_t o = chunk * tiles / chunks * kOutTile;
    for (; o + kOutTile <= end; o += kOutTile) {
      ForwardGroup<kOutTile>(*this, o, g, x, xt.data(), panels, batch, y);
    }
    for (; o < end; ++o) {
      ForwardGroup<1>(*this, o, g, x, xt.data(), panels, batch, y);
    }
  });
}

void Linear::AccumulateGrad(const float* x, const float* dy, size_t batch,
                            util::ThreadPool* pool) {
  // Tasks own disjoint ranges of output rows of dW and db.
  const size_t tasks = NumTasks(pool, out, batch * in * out);
  ParallelFor(pool, tasks, [&](size_t t) {
    Terms terms;
    for (size_t o = t * out / tasks; o < (t + 1) * out / tasks; ++o) {
      terms.Clear();
      for (size_t s = 0; s < batch; ++s) {
        const float g = dy[s * out + o];
        if (g == 0.0f) continue;
        terms.Add(s, g);
        db[o] += g;
      }
      AxpyRows(x, in, in, terms, dw.data() + o * in);
    }
  });
}

void Linear::InputGrad(const float* dy, size_t batch, float* dx,
                       util::ThreadPool* pool) const {
  // Tasks own disjoint ranges of samples.
  const size_t tasks = NumTasks(pool, batch, batch * in * out);
  ParallelFor(pool, tasks, [&](size_t t) {
    Terms terms;
    for (size_t s = t * batch / tasks; s < (t + 1) * batch / tasks; ++s) {
      terms.Clear();
      for (size_t o = 0; o < out; ++o) {
        const float g = dy[s * out + o];
        if (g != 0.0f) terms.Add(o, g);
      }
      float* dxs = dx + s * in;
      std::fill(dxs, dxs + in, 0.0f);
      AxpyRows(w.data(), in, in, terms, dxs);
    }
  });
}

void Linear::ZeroGrad() {
  std::fill(dw.begin(), dw.end(), 0.0f);
  std::fill(db.begin(), db.end(), 0.0f);
}

Mlp::Mlp(const std::vector<size_t>& dims, Activation hidden_activation,
         uint64_t seed)
    : activation_(hidden_activation) {
  assert(dims.size() >= 2);
  util::Rng rng(seed);
  for (size_t l = 0; l + 1 < dims.size(); ++l) {
    layers_.emplace_back(dims[l], dims[l + 1], &rng);
  }
}

namespace {

float Activate(float v, Activation a) {
  switch (a) {
    case Activation::kTanh: return std::tanh(v);
    case Activation::kRelu: return v > 0.0f ? v : 0.0f;
    case Activation::kNone: return v;
  }
  return v;
}

float ActivateGrad(float pre, float post, Activation a) {
  switch (a) {
    case Activation::kTanh: return 1.0f - post * post;
    case Activation::kRelu: return pre > 0.0f ? 1.0f : 0.0f;
    case Activation::kNone: return 1.0f;
  }
  return 1.0f;
}

/// grad *= f'(layer l's pre-activation), elementwise over the batch.
void ScaleByActivationGrad(const Mlp::Cache& cache, size_t l, Activation a,
                           std::vector<float>* grad) {
  const std::vector<float>& pre = cache.pre[l];
  const std::vector<float>& post = cache.post[l + 1];
  for (size_t k = 0; k < grad->size(); ++k) {
    (*grad)[k] *= ActivateGrad(pre[k], post[k], a);
  }
}

}  // namespace

const std::vector<float>& Mlp::ForwardBatch(const float* x, size_t batch,
                                            Cache* cache,
                                            util::ThreadPool* pool) const {
  cache->batch = batch;
  cache->pre.resize(layers_.size());
  cache->post.resize(layers_.size() + 1);
  cache->post[0].assign(x, x + batch * input_dim());
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Linear& layer = layers_[l];
    std::vector<float>& pre = cache->pre[l];
    pre.resize(batch * layer.out);
    layer.Forward(cache->post[l].data(), batch, pre.data(), pool);
    std::vector<float>& post = cache->post[l + 1];
    post = pre;
    if (l + 1 == layers_.size()) break;  // linear output layer
    // Hidden activation; tasks own disjoint ranges of samples. A tanh
    // costs about as much as 16 multiply-adds.
    const size_t width = layer.out;
    const size_t tasks = NumTasks(pool, batch, batch * width * 16);
    ParallelFor(pool, tasks, [&](size_t t) {
      const size_t end = (t + 1) * batch / tasks * width;
      for (size_t k = t * batch / tasks * width; k < end; ++k) {
        post[k] = Activate(post[k], activation_);
      }
    });
  }
  return cache->post.back();
}

void Mlp::BackwardBatch(const Cache& cache, const float* dout,
                        util::ThreadPool* pool) {
  const size_t batch = cache.batch;
  std::vector<float> grad(dout, dout + batch * output_dim());
  std::vector<float> dx;
  for (size_t l = layers_.size(); l-- > 0;) {
    if (l + 1 < layers_.size()) {
      ScaleByActivationGrad(cache, l, activation_, &grad);
    }
    layers_[l].AccumulateGrad(cache.post[l].data(), grad.data(), batch, pool);
    if (l == 0) break;  // the network input's gradient is not needed
    dx.resize(batch * layers_[l].in);
    layers_[l].InputGrad(grad.data(), batch, dx.data(), pool);
    grad.swap(dx);
  }
}

std::vector<float> Mlp::Forward(const std::vector<float>& x,
                                Cache* cache) const {
  assert(x.size() == input_dim());
  return ForwardBatch(x.data(), 1, cache, nullptr);
}

std::vector<float> Mlp::Forward(const std::vector<float>& x) const {
  Cache cache;
  return Forward(x, &cache);
}

void Mlp::Backward(const Cache& cache, const std::vector<float>& dout) {
  assert(dout.size() == cache.batch * output_dim());
  BackwardBatch(cache, dout.data(), nullptr);
}

std::vector<float> Mlp::BackwardInput(const Cache& cache,
                                      const std::vector<float>& dout) const {
  std::vector<float> grad = dout;
  std::vector<float> dx;
  for (size_t l = layers_.size(); l-- > 0;) {
    if (l + 1 < layers_.size()) {
      ScaleByActivationGrad(cache, l, activation_, &grad);
    }
    dx.resize(cache.batch * layers_[l].in);
    layers_[l].InputGrad(grad.data(), cache.batch, dx.data(), nullptr);
    grad.swap(dx);
  }
  return grad;
}

void Mlp::ZeroGrad() {
  for (Linear& l : layers_) l.ZeroGrad();
}

std::vector<float*> Mlp::Parameters() {
  std::vector<float*> out;
  for (Linear& l : layers_) {
    out.push_back(l.w.data());
    out.push_back(l.b.data());
  }
  return out;
}

std::vector<float*> Mlp::Gradients() {
  std::vector<float*> out;
  for (Linear& l : layers_) {
    out.push_back(l.dw.data());
    out.push_back(l.db.data());
  }
  return out;
}

std::vector<size_t> Mlp::BlockLengths() const {
  std::vector<size_t> out;
  for (const Linear& l : layers_) {
    out.push_back(l.w.size());
    out.push_back(l.b.size());
  }
  return out;
}

size_t Mlp::num_parameters() const {
  size_t n = 0;
  for (const Linear& l : layers_) n += l.w.size() + l.b.size();
  return n;
}

void Mlp::CopyWeightsFrom(const Mlp& other) {
  assert(layers_.size() == other.layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].w = other.layers_[l].w;
    layers_[l].b = other.layers_[l].b;
  }
}

namespace {

bool AnyNonFinite(const std::vector<float>& values) {
  for (float v : values) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

}  // namespace

bool Mlp::HasNonFiniteParameters() const {
  for (const Linear& l : layers_) {
    if (AnyNonFinite(l.w) || AnyNonFinite(l.b)) return true;
  }
  return false;
}

bool Mlp::HasNonFiniteGradients() const {
  for (const Linear& l : layers_) {
    if (AnyNonFinite(l.dw) || AnyNonFinite(l.db)) return true;
  }
  return false;
}

Adam::Adam(Mlp* net, Options options) : net_(net), options_(options) {
  const size_t n = net->num_parameters();
  m_.assign(n, 0.0f);
  v_.assign(n, 0.0f);
}

void Adam::Step(util::ThreadPool* pool) {
  ++t_;
  std::vector<float*> params = net_->Parameters();
  std::vector<float*> grads = net_->Gradients();
  const std::vector<size_t> lengths = net_->BlockLengths();

  if (ASQP_FAULT_POINT("nn.adam.nan_grad")) {
    grads[0][0] = std::numeric_limits<float>::quiet_NaN();
  }

  // The clip norm is one ordered sum, so it stays serial.
  double norm_sq = 0.0;
  for (size_t blk = 0; blk < grads.size(); ++blk) {
    for (size_t i = 0; i < lengths[blk]; ++i) {
      norm_sq += static_cast<double>(grads[blk][i]) * grads[blk][i];
    }
  }
  float scale = 1.0f;
  if (options_.max_grad_norm > 0.0) {
    const double norm = std::sqrt(norm_sq);
    if (norm > options_.max_grad_norm) {
      scale = static_cast<float>(options_.max_grad_norm / (norm + 1e-12));
    }
  }

  const double bc1 = 1.0 - std::pow(options_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(options_.beta2, static_cast<double>(t_));
  // The element-wise update, in chunks that own disjoint ranges of
  // parameters, gradients and moments.
  struct Chunk {
    size_t blk;
    size_t begin;
    size_t end;
    size_t block_offset;  // of the block's first element in m_ / v_
  };
  std::vector<Chunk> chunks;
  size_t offset = 0;
  for (size_t blk = 0; blk < grads.size(); ++blk) {
    for (size_t begin = 0; begin < lengths[blk]; begin += kAdamChunk) {
      chunks.push_back(
          {blk, begin, std::min(lengths[blk], begin + kAdamChunk), offset});
    }
    offset += lengths[blk];
  }
  if (offset < kMinParallelWork) pool = nullptr;
  ParallelFor(pool, chunks.size(), [&](size_t c) {
    const Chunk& chunk = chunks[c];
    float* param = params[chunk.blk];
    float* grad = grads[chunk.blk];
    for (size_t i = chunk.begin; i < chunk.end; ++i) {
      const float g = grad[i] * scale;
      float& m = m_[chunk.block_offset + i];
      float& v = v_[chunk.block_offset + i];
      m = static_cast<float>(options_.beta1 * m + (1.0 - options_.beta1) * g);
      v = static_cast<float>(options_.beta2 * v +
                             (1.0 - options_.beta2) * g * g);
      const double mhat = m / bc1;
      const double vhat = v / bc2;
      param[i] -= static_cast<float>(options_.lr * mhat /
                                     (std::sqrt(vhat) + options_.eps));
      grad[i] = 0.0f;
    }
  });
}

std::vector<float> MaskedSoftmax(const std::vector<float>& logits,
                                 const std::vector<uint8_t>& mask) {
  std::vector<float> probs(logits.size(), 0.0f);
  float max_logit = -std::numeric_limits<float>::infinity();
  for (size_t i = 0; i < logits.size(); ++i) {
    if (mask[i] && logits[i] > max_logit) max_logit = logits[i];
  }
  if (max_logit == -std::numeric_limits<float>::infinity()) return probs;
  double total = 0.0;
  for (size_t i = 0; i < logits.size(); ++i) {
    if (!mask[i]) continue;
    probs[i] = std::exp(logits[i] - max_logit);
    total += probs[i];
  }
  if (total <= 0.0) return probs;
  for (float& p : probs) p = static_cast<float>(p / total);
  return probs;
}

float Entropy(const std::vector<float>& probs) {
  float h = 0.0f;
  for (float p : probs) {
    if (p > 1e-12f) h -= p * std::log(p);
  }
  return h;
}

size_t SampleCategorical(const std::vector<float>& probs, util::Rng* rng) {
  double u = rng->UniformDouble();
  for (size_t i = 0; i < probs.size(); ++i) {
    u -= probs[i];
    if (u <= 0.0) return i;
  }
  // Numeric slack: return the last non-zero entry.
  for (size_t i = probs.size(); i-- > 0;) {
    if (probs[i] > 0.0f) return i;
  }
  return 0;
}

}  // namespace nn
}  // namespace asqp
