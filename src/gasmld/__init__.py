"""Quantum-assisted block detection for RIS-aided single-carrier links.

Library layout:

- ``qcore``    dense statevector engine (gates, QFT/IQFT, sampling)
- ``circuits`` cost-threshold search operators on top of qcore
- ``qubo``     detection cost -> QUBO, exhaustive costs, bit codec
- ``gas``      the adaptive threshold search: one driver, a group of searches at once
- ``channel``  RIS cascade channel model and circulant link algebra
- ``detect``   ``decide``: MLD, MMSE and the searches over a block; blocks of one
- ``bench``    Monte-Carlo BER sweeps, CSV emission, CLI backing
"""

__version__ = "0.1.0"

from .qubo import MldInstance, QuboProblem, mld_to_qubo  # noqa: E402
from .gas import GasConfig, GasResult, SearchContext, run_gas  # noqa: E402
from .detect import DetectionReport, gas_detect, hybrid_detect, mld_detect, mmse_detect  # noqa: E402
from .bench import (BerRecord, SweepConfig, emit_csv, fig_recipe, parse_config,  # noqa: E402
                    run_sweep)

__all__ = [
    "qcore",
    "circuits",
    "qubo",
    "gas",
    "channel",
    "detect",
    "bench",
    "MldInstance",
    "QuboProblem",
    "mld_to_qubo",
    "GasConfig",
    "GasResult",
    "SearchContext",
    "run_gas",
    "DetectionReport",
    "mld_detect",
    "mmse_detect",
    "gas_detect",
    "hybrid_detect",
    "BerRecord",
    "SweepConfig",
    "run_sweep",
    "emit_csv",
    "fig_recipe",
    "parse_config",
]
