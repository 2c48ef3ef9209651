"""All four detectors on one noisy block over a surface-assisted channel.

Run as: python3 demos/demo_detector_shootout.py
"""

import numpy as np

from gasmld.channel import (
    block_from_bits,
    circulant_matrix,
    generate_channel,
    snr_db_to_sigma2,
    transmit,
)
from gasmld.detect import gas_detect, hybrid_detect, mld_detect, mmse_detect
from gasmld.gas import GasConfig
from gasmld.qubo import MldInstance


def main():
    rng = np.random.default_rng(17)
    N, snr_db = 3, 2.0
    ch = generate_channel(R=4, L_bi=2, L_iu=2, rng=rng)
    bits = rng.integers(0, 2, size=N)
    sigma2 = snr_db_to_sigma2(snr_db)
    y = transmit(block_from_bits(bits), circulant_matrix(ch.h_eff, N), sigma2, rng)
    inst = MldInstance(h=ch.h_eff, y=y, sigma2=sigma2)
    print(f"true bits: {bits}, SNR {snr_db:g} dB, R = 4 surface elements")
    print(f"effective channel taps: {np.round(ch.h_eff, 3)}\n")

    cfg = GasConfig(engine="analytic")
    reports = [
        mld_detect(inst),
        mmse_detect(inst),
        gas_detect(inst, cfg, np.random.default_rng(1)),
        hybrid_detect(inst, cfg, np.random.default_rng(2)),
    ]
    print(f"{'method':>10} {'bits':>8} {'cost':>10} {'queries':>8}")
    for rep in reports:
        bstr = "".join(map(str, rep.bits_hat))
        print(f"{rep.method:>10} {bstr:>8} {rep.cost:10.4f} {rep.oracle_queries:8d}")


if __name__ == "__main__":
    main()
