"""Tour of the statevector core: gates, registers, QFT roundtrip.

Run as: python3 demos/demo_statevector_basics.py
"""

import numpy as np

from gasmld.qcore import (
    HADAMARD,
    apply_1q,
    apply_controlled_phase,
    apply_iqft,
    apply_qft,
    hadamard_all,
    register_distribution,
    sample_index,
    zero_state,
)


def main():
    # Bell pair: H on both qubits, controlled-phase(pi), H on qubit 1
    # (a CNOT 0 -> 1 written as H . CZ . H on the target)
    state = hadamard_all(zero_state(2))
    state = apply_controlled_phase(state, {0}, 1, np.pi)
    state = apply_1q(state, HADAMARD, 1)
    print("Bell pair amplitudes:", np.round(state.amps, 6))
    print("joint distribution:  ", np.round(register_distribution(state, [0, 1]), 6))

    # Uniform superposition over 3 qubits and a few samples
    state = hadamard_all(zero_state(3))
    dist = register_distribution(state, [0, 1, 2])
    print("\nuniform over 8 outcomes:", np.round(dist, 4))
    rng = np.random.default_rng(7)
    print("five samples:", sample_index(np.tile(np.cumsum(dist), (5, 1)), rng.random(5)).tolist())

    # QFT then inverse QFT is the identity
    rng = np.random.default_rng(11)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    state = zero_state(4)
    state.amps[:] = amps
    state = apply_iqft(apply_qft(state, [0, 1, 2, 3]), [0, 1, 2, 3])
    print("\nQFT roundtrip max error:", np.max(np.abs(state.amps - amps)))


if __name__ == "__main__":
    main()
