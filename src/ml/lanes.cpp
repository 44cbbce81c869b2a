#include "ml/lanes.hpp"

#include <cstring>

namespace mpass::ml {

namespace {
// Four float lanes (GCC/Clang vector extension). Loads and stores go
// through memcpy, so no access assumes alignment.
typedef float v4f __attribute__((vector_size(16)));

inline v4f load4(const float* p) {
  v4f v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, v4f v) { std::memcpy(p, &v, sizeof v); }

// The 4*V lanes of one block, summed in ascending i.
template <int V>
void lane_block(const float* w, std::size_t stride, const float* x, int k,
                const float* init, float* out) {
  v4f acc[V];
  for (int v = 0; v < V; ++v) acc[v] = load4(init + 4 * v);
  for (int i = 0; i < k; ++i) {
    const float* wi = w + static_cast<std::size_t>(i) * stride;
    const v4f xi = {x[i], x[i], x[i], x[i]};
    for (int v = 0; v < V; ++v) acc[v] += load4(wi + 4 * v) * xi;
  }
  for (int v = 0; v < V; ++v) store4(out + 4 * v, acc[v]);
}
}  // namespace

void lane_matvec(const float* w, std::size_t stride, const float* x, int k,
                 const float* init, float* out, int n) {
  int j = 0;
  for (; j + 16 <= n; j += 16)
    lane_block<4>(w + j, stride, x, k, init + j, out + j);
  for (; j + 4 <= n; j += 4)
    lane_block<1>(w + j, stride, x, k, init + j, out + j);
  for (; j < n; ++j) {
    float s = init[j];
    for (int i = 0; i < k; ++i)
      s += w[static_cast<std::size_t>(i) * stride + j] * x[i];
    out[j] = s;
  }
}

}  // namespace mpass::ml
