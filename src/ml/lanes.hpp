// Lane-per-output mat-vec kernel shared by the byte nets' convolution and
// the GRU's gate and output mat-vecs (DESIGN "Vectorized kernels,
// bit-exact"): every output is one float lane that does the scalar
// reduction's operations in its order -- `init[j]`, then `+ w*x` for
// ascending input index -- so the vector code is bitwise equal to the
// scalar loop it replaced.
#pragma once

#include <cstddef>

namespace mpass::ml {

/// out[j] = init[j] + w[0*stride + j]*x[0] + w[1*stride + j]*x[1] + ...
/// for the n outputs j of one mat-vec over k inputs, weights input-major
/// (lane j of row i at w[i*stride + j]): 16-lane blocks, then 4-lane
/// blocks, then a scalar tail for n % 4.
void lane_matvec(const float* w, std::size_t stride, const float* x, int k,
                 const float* init, float* out, int n);

}  // namespace mpass::ml
