// Engine identity — the state that makes two CascadeEngines interchangeable.
//
// History independence (§5, Definition 14) makes the MIS a pure function of
// the graph and the priorities. Two engines with the same graph (id bound,
// live nodes, edges), the same priority keys (dead ids included) and the
// same priority-RNG state therefore serve the same MIS now and after any
// further op sequence. Membership and |MIS| follow from those when both
// engines are correct; they are compared anyway, so a broken repair shows
// up as a difference instead of hiding behind equal inputs.
//
// This identity is the referee of every crash, failover and warm-start
// check: a recovered or promoted replica is right exactly when its
// identity matches the never-crashed engine's. The operator CLIs print
// fingerprint() so two processes can be compared in one line; tests and
// benches call state_diff(), which also says what differs.
//
// Include this header from .cpp files only: servebench/main.cpp keeps its
// own unqualified fingerprint(const core::CascadeEngine&), and
// argument-dependent lookup would make its calls ambiguous wherever this
// declaration is visible.
#pragma once

#include <cstdint>
#include <string>

#include "core/cascade_engine.hpp"

namespace dmis::core {

/// One 64-bit hash over the identity. Edges combine order-independently,
/// so a borrowed and a materialized copy of one state hash equal.
[[nodiscard]] std::uint64_t fingerprint(const CascadeEngine& engine);

/// "" when the identities of `a` and `b` are equal; otherwise the first
/// component that differs, in the order graph, priority keys, membership,
/// |MIS|, RNG state (with the first differing node where there is one).
[[nodiscard]] std::string state_diff(const CascadeEngine& a, const CascadeEngine& b);

}  // namespace dmis::core
