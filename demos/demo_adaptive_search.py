"""Adaptive threshold search on a small binary quadratic problem.

Prints the threshold trace round by round, then shows that the closed-form
sampling engine follows the statevector engine decision for decision.  The
costs here are integers, but the search encodes them as real costs, as it
does every cost.

Run as: python3 demos/demo_adaptive_search.py
"""

import numpy as np

from gasmld.gas import GasConfig, SearchContext, run_gas
from gasmld.qubo import QuboProblem, evaluate_all_costs


def main():
    rng = np.random.default_rng(5)
    n = 3
    off = np.triu(rng.integers(-4, 5, size=(n, n)), k=1).astype(float)
    diag = rng.integers(-4, 5, size=n).astype(float)
    q = QuboProblem(Q=off + off.T + np.diag(diag),
                    c=rng.integers(-4, 5, size=n).astype(float),
                    offset=0.0)
    costs = evaluate_all_costs(q)
    print("costs over all 8 patterns:", costs.astype(int))
    print("global minimum:", int(costs.min()))

    # 6 value qubits; the scale maps the costs' spread to 2^(6-2) bins
    cfg = GasConfig(m=6, engine="statevector")
    res = run_gas(SearchContext(evaluate_all_costs(q), cfg), cfg, np.random.default_rng(9))
    print("\nstatevector run:")
    for rnd, thr in res.threshold_trace:
        print(f"  round {rnd:2d}: incumbent cost {thr:g}")
    print(f"finished in {res.rounds} rounds, {res.oracle_queries} oracle queries, "
          f"best cost {res.best_cost:g}")

    twin_cfg = GasConfig(m=6, engine="analytic")
    twin = run_gas(SearchContext(evaluate_all_costs(q), twin_cfg), twin_cfg, np.random.default_rng(9))
    same = (twin.threshold_trace == res.threshold_trace
            and np.array_equal(twin.best_bits, res.best_bits)
            and twin.oracle_queries == res.oracle_queries)
    print(f"\nanalytic engine, same seed: identical trace and result = {same}")


if __name__ == "__main__":
    main()
