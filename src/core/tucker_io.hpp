#pragma once
/// \file tucker_io.hpp
/// \brief Persistence of compressed Tucker models.
///
/// Models are stored in the PTZ1 parallel container from src/pario/ (byte
/// layout in docs/FORMATS.md): the core is written and read block-parallel
/// (every rank touches only its own bytes), factors ride in the header.
/// Nothing funnels through rank 0.

#include <string>

#include "core/tucker_tensor.hpp"

namespace ptucker::core {

/// Collective: write the model as a PTZ1 file, the core block-parallel.
void save_tucker(const std::string& path, const TuckerTensor& model);

/// Collective: load a PTZ1 model file onto \p grid (any grid of matching
/// order). Any other file throws InvalidArgument.
[[nodiscard]] TuckerTensor load_tucker(const std::string& path,
                                       std::shared_ptr<mps::CartGrid> grid);

/// Size in bytes of the serialized model (for compression reporting). The
/// PTZ1 size depends on the grid of \p model's core (offset-table length).
[[nodiscard]] std::size_t serialized_bytes(const TuckerTensor& model);

}  // namespace ptucker::core
