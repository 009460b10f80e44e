#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "qstate/backend.hpp"

/// \file backend_registry.hpp
/// Backend kind -> instance, and user-facing name -> kind.
///
/// Scenario configs carry a BackendKind (core::LinkConfig::backend);
/// quantum::QuantumRegistry builds its backend with make_backend, and
/// benches and examples parse user-facing names with parse_backend_kind
/// so `--backend bell` means the same thing everywhere.

namespace qlink::qstate {

/// Instantiate a built-in backend kind.
std::unique_ptr<StateBackend> make_backend(BackendKind kind,
                                           sim::Random& random);

/// Parse a user-facing backend name ("dense", "bell",
/// "bell-diagonal") into a kind; nullopt for anything unknown.
std::optional<BackendKind> parse_backend_kind(std::string_view name);

}  // namespace qlink::qstate
