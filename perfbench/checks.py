"""Correctness checks for every workload.

Expected values are computed here from ``tests/oracles.py`` (read, never
modified) and closed forms, never from crdbounds itself: the frozen
fiducial and matter-only (EdS) k-factors, the fine-grid trapezoid reference
for any other flat cosmology, Planck scales from 40-digit arithmetic, and the
power laws N = K / l^p written out in log2.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact
MPC_IN_M = 3.085_677_581_491_367_3e22  # IAU definition
JULIAN_YEAR_S = 3.155_76e7
GYR_IN_S = JULIAN_YEAR_S * 1e9
LAB_VOLUME_M3 = 1000.0  # the canonical lab: 1000 m^3 for one Julian year
INPUTS_PER_OP = 8
FIDUCIAL = (70.0, 0.3)
EDS = (70.0, 1.0)

EXPONENTS = {
    "lab": 4,
    "lab-nearest-neighbor": 4,
    "lab-fully-connected": 8,
    "lab-broadcast": 7,
    "universe": 4,
    "universe-fully-connected": 8,
    "universe-broadcast": 7,
}

# acceptance tolerances of the test suite (tests/test_cosmology.py)
FIDUCIAL_K_TOL = (1e-8, 1e-7, 5e-8)  # k4u, k7u, k8u
OTHER_K_TOL = (1e-7, 1e-7, 1e-7)


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Checks:
    """Counts checks made and keeps the first failures for the record."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return ok


def rel_err(got: float, expected: float) -> float:
    return abs(got - expected) / abs(expected)


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


class Expected:
    """Independent expectations for the canonical scenarios in one flat
    cosmology (omega_lambda = 1 - omega_m)."""

    def __init__(self, oracles, h0_km_s_mpc: float, omega_m: float):
        self.oracles = oracles
        self.h0_km_s_mpc = h0_km_s_mpc
        self.omega_m = omega_m
        omega_lambda = 1.0 - omega_m
        h0 = h0_km_s_mpc * 1e3 / MPC_IN_M
        self.h0 = h0
        if omega_m == 1.0:
            self.k = oracles.eds_k_factors()
            self.k_tol = OTHER_K_TOL
            self.t_universe = oracles.eds_age(h0)
        else:
            if (h0_km_s_mpc, omega_m) == FIDUCIAL:
                self.k = (oracles.K4U_FIDUCIAL, oracles.K7U_FIDUCIAL, oracles.K8U_FIDUCIAL)
                self.k_tol = FIDUCIAL_K_TOL
            else:
                # k-factors do not depend on H0; this grid is converged to ~1e-8
                self.k = oracles.kfactors_reference(omega_m, omega_lambda, n=20001, m=401)
                self.k_tol = OTHER_K_TOL
            t_lambda = 2.0 / (3.0 * h0 * math.sqrt(omega_lambda))
            self.t_universe = t_lambda * math.asinh(math.sqrt(omega_lambda / omega_m))
        self.log2_lp = math.log2(oracles.PLANCK_LENGTH_M)
        self.log2_at_planck = self._log2_at_planck()

    def _log2_prefactor(self) -> dict:
        c = math.log2(SPEED_OF_LIGHT)
        lab = math.log2(LAB_VOLUME_M3) + c + math.log2(JULIAN_YEAR_S)
        hubble = c - math.log2(self.h0)
        k4u, k7u, k8u = self.k
        return {
            "lab": lab,
            "lab-nearest-neighbor": math.log2(INPUTS_PER_OP) + lab,
            "lab-fully-connected": 2.0 * lab - 1.0,
            "lab-broadcast": 2.0 * math.log2(LAB_VOLUME_M3) + c + math.log2(JULIAN_YEAR_S),
            "universe": math.log2(k4u) + 4.0 * hubble,
            "universe-fully-connected": math.log2(k8u) + 8.0 * hubble,
            "universe-broadcast": math.log2(k7u) + 7.0 * hubble,
        }

    def _log2_at_planck(self) -> dict:
        return {
            kind: log2_k - EXPONENTS[kind] * self.log2_lp
            for kind, log2_k in self._log2_prefactor().items()
        }

    def thresholds(self) -> dict:
        return {kind: round_half_up(v) for kind, v in self.log2_at_planck.items()}

    def log2_probed_length(self, kind: str, qubits: int) -> float:
        return self.log2_lp + (self.log2_at_planck[kind] - qubits) / EXPONENTS[kind]

    def crossing(self, label: str) -> float:
        """Expected Planck crossing of a figure series, keyed by its label."""
        if label.startswith("small lab"):  # 1 m^3 for 1 s
            return math.log2(SPEED_OF_LIGHT) - 4.0 * self.log2_lp
        if label.startswith("fully connected lab"):
            return self.log2_at_planck["lab-fully-connected"]
        if label.startswith("fully connected universe"):
            return self.log2_at_planck["universe-fully-connected"]
        if label.startswith("lab"):
            return self.log2_at_planck["lab"]
        return self.log2_at_planck["universe"]

    # -- checks on library and CLI outputs ----------------------------------

    def check_k_factors(self, checks: Checks, got, what: str):
        for name, value, expected, tol in zip(("k4u", "k7u", "k8u"), got, self.k, self.k_tol):
            err = rel_err(value, expected)
            checks.check(err <= tol, f"{what}: {name} relative error {err:.2e} > {tol:g}")

    def check_assessment(self, checks: Checks, qubits: int, rows, what: str):
        """rows: (scenario, threshold_qubits, probed_length_m, energy_ev, sub_planckian)."""
        expected = self.thresholds()
        problems = [] if sorted(r[0] for r in rows) == sorted(expected) else ["scenario set"]
        e_p_l_p = self.oracles.PLANCK_ENERGY_EV * self.oracles.PLANCK_LENGTH_M
        for kind, threshold, length, energy, sub in rows:
            exact = self.log2_at_planck[kind]
            if threshold != expected[kind]:
                problems.append(f"{kind} threshold {threshold} != {expected[kind]}")
            if abs(math.log2(length) - self.log2_probed_length(kind, qubits)) > 1e-6:
                problems.append(f"{kind} probed length {length!r}")
            if rel_err(energy * length, e_p_l_p) > 1e-9:
                problems.append(f"{kind} energy {energy!r}")
            if abs(qubits - exact) > 1e-6 and sub != (qubits > exact):
                problems.append(f"{kind} sub_planckian {sub}")
        if [r[1] for r in rows] != sorted(r[1] for r in rows):
            problems.append("not sorted by threshold")
        checks.check(not problems, f"{what} n={qubits}: {problems}")


def check_machine(checks: Checks, oracles, ops, volume, duration, length, energy, crd_log2, what):
    c = math.log2(SPEED_OF_LIGHT)
    expected = 2.0 ** ((math.log2(volume) + c + math.log2(duration) - math.log2(ops)) / 4.0)
    e_p_l_p = oracles.PLANCK_ENERGY_EV * oracles.PLANCK_LENGTH_M
    ok = (
        rel_err(length, expected) <= 1e-12
        and rel_err(energy * length, e_p_l_p) <= 1e-9
        and abs(crd_log2 - (math.log2(ops) - math.log2(volume) - math.log2(duration))) <= 1e-9
    )
    checks.check(ok, f"{what}: machine mode ops={ops!r} volume={volume!r} duration={duration!r}")


def check_constants_text(checks: Checks, oracles, text: str, what: str):
    pattern = {
        "l_P": (r"l_P = (\S+) m", oracles.PLANCK_LENGTH_M),
        "t_P": (r"t_P = (\S+) s", oracles.PLANCK_TIME_S),
        "E_P": (r"E_P = (\S+) eV", oracles.PLANCK_ENERGY_EV),
    }
    problems = []
    for name, (regex, expected) in pattern.items():
        match = re.search(regex, text)
        if match is None or rel_err(float(match.group(1)), expected) > 1e-9:
            problems.append(name)
    match = re.search(r"log2 = ([0-9.]+)", text)
    if match is None or abs(float(match.group(1)) - oracles.PLANCK_CRD_LOG2) > 1e-6:
        problems.append("C_P")
    checks.check(not problems, f"{what}: constants {problems}")


def check_cli_json(checks: Checks, expect: Expected, verb: str, request: dict, stdout: str, what: str):
    """Parse a CLI JSON document and compare it with the expectations."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        checks.check(False, f"{what}: {verb} output is not JSON")
        return
    meta = doc.get("metadata", {})
    if verb != "scale-machine":
        same_cosmology = (
            meta.get("h0_km_s_mpc") == expect.h0_km_s_mpc and meta.get("omega_m") == expect.omega_m
        )
        checks.check(same_cosmology, f"{what}: {verb} metadata {meta}")
    if verb == "threshold":
        got = {row["scenario"]: row for row in doc["thresholds"]}
        problems = [
            kind
            for kind, value in expect.log2_at_planck.items()
            if kind not in got
            or got[kind]["qubits"] != round_half_up(value)
            or abs(got[kind]["log2_nops_exact"] - value) > 1e-6
        ]
        checks.check(not problems, f"{what}: threshold mismatch {problems}")
    elif verb == "kfactors":
        expect.check_k_factors(checks, (doc["k4u"], doc["k7u"], doc["k8u"]), f"{what}: kfactors")
        gyr = expect.t_universe / GYR_IN_S
        checks.check(rel_err(doc["t_universe_gyr"], gyr) <= 1e-12, f"{what}: age {doc['t_universe_gyr']}")
    elif verb == "scale":
        rows = [
            (r["scenario"], r["threshold_qubits"], r["probed_length_m"], r["energy_ev"], r["sub_planckian"])
            for r in doc["scenarios"]
        ]
        expect.check_assessment(checks, request["qubits"], rows, f"{what}: scale")
    elif verb == "scale-machine":
        check_machine(
            checks, expect.oracles, request["ops"], request["volume"], request["duration"],
            doc["max_length_m"], doc["energy_ev"], doc["crd_log2"], what,
        )
    elif verb == "figure":
        crossings = doc["planck_crossings_log2_neo"]
        problems = [
            label for label, value in crossings.items() if abs(value - expect.crossing(label)) > 1e-6
        ]
        checks.check(len(crossings) == 5 and not problems, f"{what}: figure crossings {crossings}")
        path = Path(doc["out"])
        rows = path.read_bytes().count(b"\n") if path.exists() else 0
        checks.check(rows == 1 + 5 * request["points"], f"{what}: figure file has {rows} lines")
