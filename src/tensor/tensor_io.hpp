#pragma once
/// \file tensor_io.hpp
/// \brief Binary (de)serialization of dense tensors.
///
/// Format (little-endian):
///   magic "PTT1" | u64 order | u64 dims[order] | f64 data[prod(dims)]

#include <iosfwd>
#include <string>

#include "tensor/tensor.hpp"

namespace ptucker::tensor {

void write_tensor(std::ostream& os, const Tensor& t);
[[nodiscard]] Tensor read_tensor(std::istream& is);

void save_tensor(const std::string& path, const Tensor& t);
[[nodiscard]] Tensor load_tensor(const std::string& path);

}  // namespace ptucker::tensor
