#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "quantum/density_matrix.hpp"
#include "quantum/gates.hpp"
#include "sim/random.hpp"

/// \file backend.hpp
/// The pluggable quantum-state representation boundary.
///
/// quantum::QuantumRegistry owns *which* qubits exist and hands every
/// state-touching operation to a StateBackend. A backend chooses how the
/// joint states are represented: DenseBackend keeps density matrices
/// (pooled, in-place — the reference semantics), BellDiagonalBackend
/// tracks two-qubit pairs as 4 Bell-diagonal coefficients with
/// closed-form Pauli-noise decay and entanglement swapping, escalating
/// to dense storage only when an operation leaves the structured
/// manifold. Backends are selected per scenario by
/// core::LinkConfig::backend and built by make_backend (see
/// backend_registry.hpp).

namespace qlink::qstate {

/// Opaque handle to a live qubit. Id 0 is never valid.
using QubitId = std::uint64_t;

enum class BackendKind { kDense, kBellDiagonal };

/// Counters every backend maintains; benches report them so the effect
/// of the structured fast path and the buffer pool is observable.
struct BackendStats {
  std::uint64_t fast_ops = 0;    ///< ops served by a closed-form path
  std::uint64_t dense_ops = 0;   ///< ops that ran dense linear algebra
  std::uint64_t promotions = 0;  ///< structured groups escalated to dense
  std::uint64_t demotions = 0;   ///< dense groups rebuilt as Bell pairs
                                 ///< by a fresh Bell-diagonal install
  std::uint64_t pool_hits = 0;   ///< dense buffers reused from the pool
  std::uint64_t pool_misses = 0; ///< dense buffers newly allocated
};

/// Abstract quantum-state store. All operations use the same
/// conventions as the historical registry code: qubit 0 of a group is
/// the leftmost tensor factor, measurement draws exactly one
/// Random::bernoulli(P(outcome == 1)) per measured qubit, and measured
/// qubits stay allocated in their post-measurement product state.
class StateBackend {
 public:
  virtual ~StateBackend() = default;

  StateBackend(const StateBackend&) = delete;
  StateBackend& operator=(const StateBackend&) = delete;

  virtual const char* name() const noexcept = 0;

  /// Allocate a fresh qubit in |0>.
  virtual QubitId create() = 0;
  /// Destroy a qubit: it is traced out of its group.
  virtual void discard(QubitId q) = 0;
  virtual bool exists(QubitId q) const = 0;
  virtual std::size_t live_qubits() const = 0;
  /// Number of qubits sharing a state with q (including q).
  virtual std::size_t group_size(QubitId q) const = 0;

  /// Apply a unitary on the listed qubits (groups merged as needed).
  virtual void apply_unitary(const quantum::Matrix& u,
                             std::span<const QubitId> qubits) = 0;
  /// Apply a Kraus channel on the listed qubits.
  virtual void apply_kraus(std::span<const quantum::Matrix> kraus,
                           std::span<const QubitId> qubits) = 0;

  /// Dephasing channel rho -> (1-p) rho + p Z rho Z on one qubit.
  virtual void dephase(QubitId q, double p) = 0;
  /// Depolarising channel with keep-weight f (channels::depolarizing).
  virtual void depolarize(QubitId q, double f) = 0;
  /// Combined T1/T2 decay over t_ns (channels::t1t2 semantics;
  /// t1/t2 <= 0 means infinite).
  virtual void decay(QubitId q, double t_ns, double t1_ns, double t2_ns) = 0;

  /// Measure one qubit in the given basis (collapses and separates it
  /// from its group; it stays allocated). Returns 0 or 1.
  virtual int measure(QubitId q, quantum::gates::Basis basis) = 0;

  /// Bell measurement: CNOT(control -> target), H(control), then both
  /// qubits measured in Z. Returns {m1 = control, m2 = target} with the
  /// same Random consumption as four separate calls would have.
  virtual std::pair<int, int> bell_measure(QubitId control,
                                           QubitId target) = 0;

  /// Overwrite the joint state of the listed qubits (old correlations
  /// are severed, the state is renormalised).
  virtual void set_state(std::span<const QubitId> qubits,
                         const quantum::DensityMatrix& dm) = 0;
  /// Reset a single qubit to |0> (traced out of its group first).
  virtual void reset(QubitId q) = 0;

  /// Reduced density matrix of the listed qubits, in request order
  /// (simulator privilege; diagnostics only).
  virtual quantum::DensityMatrix peek(
      std::span<const QubitId> qubits) const = 0;

  virtual const BackendStats& stats() const noexcept { return stats_; }

 protected:
  StateBackend() = default;
  mutable BackendStats stats_;
};

const char* backend_kind_name(BackendKind kind) noexcept;

}  // namespace qlink::qstate
