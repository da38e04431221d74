#!/usr/bin/env python3
"""Reproduce the headline numbers for the three shipped scenarios.

Prints the dependency ratio, critical ages, preference case, and the optimal
contribution-rate mixes under both welfare weightings, plus the voluntary-EET
equilibrium.
"""
import sys
import time
from pathlib import Path

from penmix import demography, government, load_scenario, preference, validate


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def run(name: str) -> None:
    s = load_scenario(SCENARIOS / name)
    dc = validate(s)
    print(f"=== {name} ===")
    print(f"dependency ratio 1/Lambda = {1 / dc.Lambda:.4f}   a_tau = {dc.a_tau:.4f}")
    if s.demo.babyboom is not None:
        lam_t0 = demography.bb_support_ratio(s.policy.t0, s.demo)
        print(f"baby boom: 1/Lambda(t0) = {1 / lam_t0:.4f}")
    rep = preference.preference_map(s, step=5.0)
    print(f"zeta_hat = {rep.zeta_hat:.4f}   zeta_tilde = {rep.zeta_tilde:.4f}   "
          f"{rep.case_label} ({rep.eet_flag})")
    for mode in ("population", "equal"):
        t0 = time.perf_counter()
        mix = government.optimize_mix(s, mode=mode)
        print(f"{mode:>10}: theta* = {mix.theta_star:.4f}  k* = {mix.k_star:.4f}  "
              f"cap binding = {mix.cap_binding}  [{time.perf_counter() - t0:.1f}s]")
    vol = government.optimize_voluntary(s, mode="population")
    print(f" voluntary: theta* = {vol.theta_star:.4f}  (entrant k = {vol.k_star:.4f})")
    print()


def main() -> int:
    for name in ("scenario_us.json", "scenario_cn.json", "scenario_us_babyboom.json"):
        run(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
