#include "qstate/backend_registry.hpp"

#include <stdexcept>

#include "qstate/bell_backend.hpp"
#include "qstate/dense_backend.hpp"

namespace qlink::qstate {

const char* backend_kind_name(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kDense:
      return "dense";
    case BackendKind::kBellDiagonal:
      return "bell-diagonal";
  }
  return "?";
}

std::unique_ptr<StateBackend> make_backend(BackendKind kind,
                                           sim::Random& random) {
  switch (kind) {
    case BackendKind::kDense:
      return std::make_unique<DenseBackend>(random);
    case BackendKind::kBellDiagonal:
      return std::make_unique<BellDiagonalBackend>(random);
  }
  throw std::invalid_argument("make_backend: unknown kind");
}

std::optional<BackendKind> parse_backend_kind(std::string_view name) {
  if (name == "dense") return BackendKind::kDense;
  if (name == "bell" || name == "bell-diagonal") {
    return BackendKind::kBellDiagonal;
  }
  return std::nullopt;
}

}  // namespace qlink::qstate
