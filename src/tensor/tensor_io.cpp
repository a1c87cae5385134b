#include "tensor/tensor_io.hpp"

#include <cstring>
#include <fstream>

#include "util/error.hpp"

namespace ptucker::tensor {

namespace {

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  PT_REQUIRE(is.good(), "tensor_io: truncated stream");
  return v;
}

void write_magic(std::ostream& os, const char magic[4]) {
  os.write(magic, 4);
}

void expect_magic(std::istream& is, const char magic[4]) {
  char buf[4] = {};
  is.read(buf, 4);
  PT_REQUIRE(is.good() && std::memcmp(buf, magic, 4) == 0,
             "tensor_io: bad magic");
}

}  // namespace

void write_tensor(std::ostream& os, const Tensor& t) {
  write_magic(os, "PTT1");
  write_u64(os, static_cast<std::uint64_t>(t.order()));
  for (int n = 0; n < t.order(); ++n) write_u64(os, t.dim(n));
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.size() * sizeof(double)));
  PT_REQUIRE(os.good(), "tensor_io: write failed");
}

Tensor read_tensor(std::istream& is) {
  expect_magic(is, "PTT1");
  const std::uint64_t order = read_u64(is);
  PT_REQUIRE(order >= 1 && order <= 64, "tensor_io: implausible order");
  Dims dims(order);
  for (auto& d : dims) d = read_u64(is);
  Tensor t(dims);
  is.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(t.size() * sizeof(double)));
  PT_REQUIRE(is.good(), "tensor_io: truncated tensor data");
  return t;
}

void save_tensor(const std::string& path, const Tensor& t) {
  std::ofstream os(path, std::ios::binary);
  PT_REQUIRE(os.good(), "tensor_io: cannot open " << path);
  write_tensor(os, t);
}

Tensor load_tensor(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  PT_REQUIRE(is.good(), "tensor_io: cannot open " << path);
  return read_tensor(is);
}

}  // namespace ptucker::tensor
