// A K-wide BrickedArray seen through the batched kernels' eyes
// (DESIGN.md §15). The storage is an ordinary BrickedArray with
// components() == K (bricked_array.hpp): component c of cell (i,j,k)
// sits at storage element (i*K + c, j, k) of the stretched brick shape
// {bx*K, by, bz}.
//
// The key flat-index identity the batched kernels build on: interior
// bricks are ids [0, num_interior) in both the plain and the stretched
// layout (same grid), so if a plain field stores interior element e at
// flat offset e, the K-wide field stores component c of that same cell
// at flat offset e*K + c. Component c of the whole interior is a
// stride-K slice of one contiguous span — which is what makes the
// per-component reductions bitwise identical to a one-component field
// (see batched_kernels.cpp).
#pragma once

#include "brick/bricked_array.hpp"

namespace gmg::batch {

/// Map a box in base cell coordinates to the stretched storage
/// coordinates (x scaled by K; the image covers all K components of
/// every base cell).
inline Box stretch_box(const Box& b, int k) {
  const index_t kk = static_cast<index_t>(k);
  return Box{{b.lo.x * kk, b.lo.y, b.lo.z}, {b.hi.x * kk, b.hi.y, b.hi.z}};
}

/// Non-owning view of a K-wide BrickedArray. Kernels take outputs as
/// views by value and inputs as `const BatchedBrickedArray&`; a const
/// view grants read access only.
class BatchedBrickedArray {
 public:
  explicit BatchedBrickedArray(const BrickedArray& a)
      : a_(const_cast<BrickedArray*>(&a)) {}

  int batch() const { return a_->components(); }
  BrickShape base_shape() const { return a_->base_shape(); }

  /// The stretched-shape storage array: what the ghost exchange, the
  /// hazard-detector scopes, and init_zero operate on directly.
  BrickedArray& inner() { return *a_; }
  const BrickedArray& inner() const { return *a_; }

  const BrickGrid& grid() const { return a_->grid(); }
  std::size_t size() const { return a_->size(); }
  real_t* data() { return a_->data(); }
  const real_t* data() const { return a_->data(); }

  /// Element access by base cell coordinate and component (convenience
  /// path; kernels iterate bricks directly).
  real_t& at(index_t i, index_t j, index_t k, int c) {
    return a_->at(i, j, k, c);
  }
  const real_t& at(index_t i, index_t j, index_t k, int c) const {
    return a_->at(i, j, k, c);
  }

 private:
  BrickedArray* a_;
};

/// The batched view of a K-wide field.
inline BatchedBrickedArray view(const BrickedArray& a) {
  return BatchedBrickedArray(a);
}

}  // namespace gmg::batch
