// One test-name generator for the (SchemeKind, seed) soak suites of this
// binary, so they all name their instances the same way.
#pragma once

#include <string>
#include <tuple>

#include "reldev/core/group.hpp"

namespace reldev::core {

/// "voting_seed42"-style parameter names for (scheme, seed) suites: gtest
/// names must be identifiers, and only the low 16 bits of a seed are kept.
template <typename ParamInfo>
std::string scheme_seed_name(const ParamInfo& info) {
  std::string name = scheme_kind_name(std::get<0>(info.param));
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_seed" + std::to_string(std::get<1>(info.param) & 0xFFFF);
}

}  // namespace reldev::core
