"""Closed-form expected values for the benchmark's commands, and the check
that compares edsim's written output against them.

Nothing here imports edsim: every expected value is computed with `math`
from the inputs the benchmark itself generated, so a wrong number from
edsim cannot leak into its own expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# CODATA values behind the CLI's units (Hamiltonians in rad/s, splittings in eV)
HBAR = 1.054571817e-34      # J s
EV = 1.602176634e-19        # J per eV
C_LIGHT = 299792458.0       # m/s
OMEGA_PER_EV = EV / HBAR    # rad/s of a 1 eV splitting
YEAR_S = 3.156e7            # the CLI's year for --age-years, s

# the acceptance suite's tolerances
PHOTON_ATOL = 1e-6
VISIBILITY_ATOL = 1e-9
CLOSED_FORM_RTOL = 1e-9

# 2*pi to 50 digits, so that a phase of 1e12 rad reduces exactly enough
_TWO_PI = Fraction("6.28318530717958647692528676655900576839433879875021")


@dataclass(frozen=True)
class Expect:
    """One expected field of a command's JSON summary (or of one sweep row)."""

    key: str                    # dotted path, e.g. "closed_form.n_opt"
    value: float | bool
    atol: float = 0.0
    rtol: float = 0.0

    def holds(self, doc: dict) -> bool:
        got = doc
        try:
            for part in self.key.split("."):
                got = got[part]
        except (KeyError, TypeError):
            return False
        if isinstance(self.value, bool):
            return got is self.value
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return False
        return abs(got - self.value) <= self.atol + self.rtol * abs(self.value)


def close(key: str, value: float) -> Expect:
    """Relative match at the closed-form tolerance."""
    return Expect(key, value, rtol=CLOSED_FORM_RTOL)


def michelson_photons(alpha: float, partition: str, sigma: float, omega: float, arm_time: float):
    """Output photon means (a, b): global dephasing is invisible, per-arm
    dephasing washes out the fringe as exp(-2*sigma*omega^2*t)."""
    mean = alpha * alpha
    if partition == "global":
        return mean, 0.0
    fringe = math.exp(-2.0 * sigma * omega * omega * arm_time)
    return mean / 2.0 * (1.0 + fringe), mean / 2.0 * (1.0 - fringe)


def ramsey_visibility(sigma: float, omega0: float, omega: float, wait: float, gamma_sp: float = 0.0):
    """Local-partition Ramsey contrast: atom and field gaps both dephase."""
    return math.exp(-sigma * (omega0 * omega0 + omega * omega) * wait - gamma_sp * wait / 2.0)


def semiclassical_visibility(sigma: float, omega0: float, wait: float):
    """Classical-drive Ramsey contrast without spontaneous decay."""
    return math.exp(-sigma * omega0 * omega0 * wait)


def reduced_phase(detuning: float, wait: float) -> float:
    """(detuning*wait) mod 2*pi, exact for phases far beyond 2*pi."""
    x = Fraction(detuning) * Fraction(wait)
    return float(x - math.floor(x / _TWO_PI) * _TWO_PI)


def sampled_visibility(v: float, theta: float, points: int) -> float:
    """(max-min)/(max+min) of (1 + v*cos(phi + theta))/2 on the CLI's phase grid."""
    p = [(1.0 + v * math.cos(2.0 * math.pi * k / points + theta)) / 2.0 for k in range(points)]
    return (max(p) - min(p)) / (max(p) + min(p))


def ghz_design(gamma_sp: float, kappa: float, k3: float, delta_e: float) -> dict:
    """GHZ design optimum: V = kappa/gamma_sp, N = kappa/sqrt(k3*gamma_sp)."""
    gamma = math.sqrt(gamma_sp**3 * k3) / kappa
    w = delta_e * OMEGA_PER_EV
    return {
        "n_opt": kappa / math.sqrt(k3 * gamma_sp),
        "v_opt": kappa / gamma_sp,
        "gamma_min": gamma,
        "sigma_min": gamma / (w * w),
    }


def bounds(p: dict) -> dict:
    """All four reach calculators, keyed as in the `bounds` summary."""
    w = p["delta_e"] * OMEGA_PER_EV
    rate = p["sigma"] * (p["mass"] * C_LIGHT * C_LIGHT / HBAR) ** 2
    length = p["velocity"] / rate
    l_dec = C_LIGHT * p["gamma"] / (p["gamma_sp"] * p["gamma_sp"])
    l_laser = C_LIGHT * p["coherence_time"]
    return {
        "single_atom.sigma_reach": p["gamma_detectable"] / (w * w),
        "matterwave.rate": rate,
        "matterwave.decoherence_length": length,
        "matterwave.excluded": length < p["flight_path"],
        "distance.l_decoherence": l_dec,
        "distance.l_laser": l_laser,
        "distance.l_max": min(l_dec, l_laser),
        "cosmic.delta_e_ev": HBAR / math.sqrt(p["sigma"] * p["age_years"] * YEAR_S) / EV,
    }


def ghz(n: int, omega0: float, sigma: float, gamma_sp: float, three_body: float, wait: float) -> dict:
    """GHZ coherence with the N^2-enhanced dephasing rate plus particle loss."""
    loss = n * gamma_sp + three_body
    rate = sigma * omega0 * omega0 * n * n + loss
    return {
        "coherence": 0.5 * math.exp(-rate * wait),
        "survival": math.exp(-loss * wait),
        "effective_rate": rate,
    }
