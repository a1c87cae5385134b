#include "core/tucker_io.hpp"

#include "pario/model_io.hpp"

namespace ptucker::core {

void save_tucker(const std::string& path, const TuckerTensor& model) {
  pario::write_model(path, model.core,
                     std::span<const Matrix>(model.factors));
}

TuckerTensor load_tucker(const std::string& path,
                         std::shared_ptr<mps::CartGrid> grid) {
  PT_REQUIRE(grid != nullptr, "load_tucker: null grid");
  pario::ModelData data = pario::read_model(path, std::move(grid));
  TuckerTensor model;
  model.core = std::move(data.core);
  model.factors = std::move(data.factors);
  return model;
}

std::size_t serialized_bytes(const TuckerTensor& model) {
  return pario::ptz1_file_bytes(model.core.global_dims(),
                                model.core.grid().shape(),
                                std::span<const Matrix>(model.factors));
}

}  // namespace ptucker::core
