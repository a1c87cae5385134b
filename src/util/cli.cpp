#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/error.hpp"

namespace ptucker::util {

ArgParser::ArgParser(std::string prog, std::string description)
    : prog_(std::move(prog)), description_(std::move(description)) {}

void ArgParser::add_int(const std::string& name, std::int64_t def,
                        const std::string& help) {
  options_[name] = Option{Kind::Int, help, std::to_string(def),
                          std::to_string(def)};
  order_.push_back(name);
}

void ArgParser::add_double(const std::string& name, double def,
                           const std::string& help) {
  std::ostringstream os;
  os << def;
  options_[name] = Option{Kind::Double, help, os.str(), os.str()};
  order_.push_back(name);
}

void ArgParser::add_string(const std::string& name, const std::string& def,
                           const std::string& help) {
  options_[name] = Option{Kind::String, help, def, def};
  order_.push_back(name);
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  options_[name] = Option{Kind::Flag, help, "0", "0"};
  order_.push_back(name);
}

void ArgParser::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      std::exit(0);
    }
    PT_REQUIRE(arg.rfind("--", 0) == 0,
               "unexpected positional argument '" << arg << "'");
    std::string name = arg.substr(2);
    std::string inline_value;
    bool has_inline = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    auto it = options_.find(name);
    PT_REQUIRE(it != options_.end(), "unknown option '--" << name << "'");
    if (it->second.kind == Kind::Flag) {
      it->second.value.assign(1, '1');
      continue;
    }
    if (has_inline) {
      it->second.value = inline_value;
    } else {
      PT_REQUIRE(i + 1 < argc, "option '--" << name << "' expects a value");
      it->second.value = argv[++i];
    }
  }
}

const ArgParser::Option& ArgParser::find(const std::string& name,
                                         Kind kind) const {
  auto it = options_.find(name);
  PT_REQUIRE(it != options_.end(), "option '" << name << "' not declared");
  PT_REQUIRE(it->second.kind == kind,
             "option '" << name << "' accessed with wrong type");
  return it->second;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  return std::stoll(find(name, Kind::Int).value);
}

double ArgParser::get_double(const std::string& name) const {
  return std::stod(find(name, Kind::Double).value);
}

const std::string& ArgParser::get_string(const std::string& name) const {
  return find(name, Kind::String).value;
}

bool ArgParser::get_flag(const std::string& name) const {
  return find(name, Kind::Flag).value == "1";
}

std::vector<std::size_t> ArgParser::parse_dims(const std::string& text) {
  std::vector<std::size_t> dims;
  std::stringstream ss(text);
  std::string part;
  while (std::getline(ss, part, ',')) {
    if (part.empty()) continue;
    const long long v = std::stoll(part);
    PT_REQUIRE(v > 0, "dimension entries must be positive, got " << v);
    dims.push_back(static_cast<std::size_t>(v));
  }
  PT_REQUIRE(!dims.empty(), "empty dimension list '" << text << "'");
  return dims;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << prog_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    os << "  --" << name;
    switch (opt.kind) {
      case Kind::Int: os << " <int>"; break;
      case Kind::Double: os << " <float>"; break;
      case Kind::String: os << " <str>"; break;
      case Kind::Flag: break;
    }
    os << "\n      " << opt.help;
    if (opt.kind != Kind::Flag) os << " (default: " << opt.def << ")";
    os << "\n";
  }
  os << "  --help\n      print this message\n";
  return os.str();
}

}  // namespace ptucker::util
