"""From a detection problem to a cost written on a quantum register.

Walks the chain: received block -> binary quadratic cost -> table of
shifted costs -> value register of the prepared state A|0>, then reads the
conditional value distribution per bit pattern.  Integer costs land on single bins; real costs spread as a
squared-Fejer profile around the scaled value.

Run as: python3 demos/demo_cost_encoding.py
"""

import numpy as np

from gasmld.channel import block_from_bits, circulant_matrix, transmit
from gasmld.circuits import GasCircuitSpec, apply_state_preparation
from gasmld.gas import cost_bounds, required_value_qubits
from gasmld.qcore import zero_state
from gasmld.qubo import MldInstance, QuboProblem, evaluate_all_costs, mld_to_qubo


def value_rows(spec):
    """Row b is the value-register distribution given key b.  Every key branch
    of A|0> weighs 2^-n, so it is 2^n |A|0>|^2 at index key + 2^n * value."""
    state = apply_state_preparation(zero_state(spec.total_qubits), spec)
    joint = (1 << spec.n) * np.abs(state.amps) ** 2
    return joint.reshape(1 << spec.m, 1 << spec.n).T


def integer_example():
    q = QuboProblem(
        Q=np.array([[1.0, 2.0], [2.0, 0.0]]),
        c=np.array([-3.0, 1.0]),
        offset=2.0,
    )
    costs = evaluate_all_costs(q)
    y = float(costs[0])
    m = required_value_qubits(q.n, cost_bounds(costs), "integer")
    spec = GasCircuitSpec(q.n, m, costs - y)
    cond = value_rows(spec)
    print(f"integer case: m = {m} value qubits, threshold y = {y:g}")
    for b in range(4):
        peak = int(np.argmax(cond[b]))
        print(f"  bits {b:02b}: cost {costs[b]:4g}, shifted {costs[b]-y:4g}, "
              f"read bin {peak} with p = {cond[b, peak]:.6f}")


def real_example():
    rng = np.random.default_rng(3)
    h = (rng.normal(size=2) + 1j * rng.normal(size=2)) / np.sqrt(2)
    H = circulant_matrix(h, 2)
    bits = np.array([1, 0])
    y = transmit(block_from_bits(bits), H, 0.2, rng)
    inst = MldInstance(H=H, y=y, sigma2=0.2)
    q = mld_to_qubo(inst)
    costs = evaluate_all_costs(q)
    m = required_value_qubits(q.n, cost_bounds(costs), "real_direct")
    spread = costs.max() - costs.min()
    scale = 2.0 ** (m - 2) / spread
    spec = GasCircuitSpec(q.n, m, scale * (costs - costs.min()))
    cond = value_rows(spec)
    print(f"\nreal case: m = {m}, scale {scale:.4f} (costs span {spread:.4f})")
    for b in range(4):
        peak = int(np.argmax(cond[b]))
        scaled = scale * (costs[b] - costs.min())
        print(f"  bits {b:02b}: scaled value {scaled:7.3f}, peak bin {peak}, "
              f"p = {cond[b, peak]:.4f}")


def main():
    integer_example()
    real_example()


if __name__ == "__main__":
    main()
