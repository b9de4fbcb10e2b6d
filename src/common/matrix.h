// Dense row-major 2-D and 3-D arrays.
//
// The JTORA model is naturally indexed by (user, server) and (user, server,
// sub-channel); these small wrappers give bounds-checked, cache-friendly
// storage without dragging in a linear-algebra dependency.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/error.h"

namespace tsajs {

/// Row-major dense matrix indexed as (row, col).
template <typename T>
class Matrix2 {
 public:
  Matrix2() = default;
  Matrix2(std::size_t rows, std::size_t cols, const T& fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] T& operator()(std::size_t r, std::size_t c) {
    TSAJS_REQUIRE(r < rows_ && c < cols_, "Matrix2 index out of range");
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const T& operator()(std::size_t r, std::size_t c) const {
    TSAJS_REQUIRE(r < rows_ && c < cols_, "Matrix2 index out of range");
    return data_[r * cols_ + c];
  }

  void fill(const T& value) { data_.assign(data_.size(), value); }

  [[nodiscard]] const std::vector<T>& data() const noexcept { return data_; }

  friend bool operator==(const Matrix2&, const Matrix2&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

/// Row-major dense 3-D tensor indexed as (i, j, k).
template <typename T>
class Matrix3 {
 public:
  Matrix3() = default;
  Matrix3(std::size_t dim0, std::size_t dim1, std::size_t dim2,
          const T& fill = T{})
      : dim0_(dim0),
        dim1_(dim1),
        dim2_(dim2),
        data_(dim0 * dim1 * dim2, fill) {}

  [[nodiscard]] std::size_t dim0() const noexcept { return dim0_; }
  [[nodiscard]] std::size_t dim1() const noexcept { return dim1_; }
  [[nodiscard]] std::size_t dim2() const noexcept { return dim2_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  [[nodiscard]] T& operator()(std::size_t i, std::size_t j, std::size_t k) {
    TSAJS_REQUIRE(i < dim0_ && j < dim1_ && k < dim2_,
                  "Matrix3 index out of range");
    return data_[(i * dim1_ + j) * dim2_ + k];
  }
  [[nodiscard]] const T& operator()(std::size_t i, std::size_t j,
                                    std::size_t k) const {
    TSAJS_REQUIRE(i < dim0_ && j < dim1_ && k < dim2_,
                  "Matrix3 index out of range");
    return data_[(i * dim1_ + j) * dim2_ + k];
  }

  void fill(const T& value) { data_.assign(data_.size(), value); }

  /// Re-dimensions the tensor in place, keeping the underlying allocation
  /// whenever the new extent fits the existing capacity. Element values are
  /// unspecified afterwards; callers are expected to overwrite every entry
  /// (e.g. radio::ChannelModel::regenerate_into re-drawing an epoch's gains
  /// into a tensor that outlives the epoch).
  void reshape(std::size_t dim0, std::size_t dim1, std::size_t dim2) {
    dim0_ = dim0;
    dim1_ = dim1;
    dim2_ = dim2;
    data_.resize(dim0 * dim1 * dim2);
  }

  [[nodiscard]] const std::vector<T>& data() const noexcept { return data_; }

  /// Mutable view of the row-major storage (element (i, j, k) at
  /// (i * dim1 + j) * dim2 + k), for writers that fill the tensor in layout
  /// order instead of one bounds-checked element at a time.
  [[nodiscard]] std::span<T> flat() noexcept { return data_; }

  friend bool operator==(const Matrix3&, const Matrix3&) = default;

 private:
  std::size_t dim0_ = 0;
  std::size_t dim1_ = 0;
  std::size_t dim2_ = 0;
  std::vector<T> data_;
};

}  // namespace tsajs
