"""The k-factors' bits are one answer on every Python.

Every sum on the k path is exactly rounded (``laws._fsum``), so k4u, k7u,
k8u and k_shift do not depend on the interpreter. The builtin ``sum``
would: it compensates from Python 3.12 on and did not before, which moved
k-factors by up to 5 ulps. The bits below are frozen. The module imports
neither pytest nor numpy, so it also runs as a script on any interpreter
the package supports, and exits 1 if a bit moved:

    PYTHONPATH=src python tests/test_kfactor_bits.py
"""

import sys

from crdbounds.laws import CosmologyParams, universe_laws

# float.hex of (k4u, k7u, k8u) and of k_shift at H0 = 70 km/s/Mpc, by
# Omega_M; Omega_L is 1 - Omega_M, or the largest double below 1
FROZEN = {
    1.0: (
        ("0x1.154a195a571adp-5", "0x1.2a175298b5801p-11", "0x1.bfb9cbfea9667p-15"),
        ("0x1.d8b0afb36e005p-52", "0x1.12d0b85676e8fp-50", "0x1.6df033707086ep-51"),
    ),
    0.3: (
        ("0x1.089de5c4928bbp-3", "0x1.9571209dee897p-8", "0x1.c2ac0c388cd01p-11"),
        ("0x1.ef53de0e03e3dp-53", "0x1.e4ec38dad7e99p-52", "0x1.22d63596059bep-53"),
    ),
    1e-12: (
        ("0x1.f0876e7403bacp+4", "0x1.8709517042640p+6", "0x1.29dc71a74a055p+8"),
        ("0x1.49f87ba989d62p-51", "0x1.b7f0471a8da77p-47", "0x0.0p+0"),
    ),
    1e-200: (
        ("0x1.3dba2fc405201p+9", "0x1.48ad8a580aa7bp+11", "0x1.80ea1479021fep+17"),
        ("0x1.9c87a5eec4318p-52", "0x1.ec403d533aa2bp-47", "0x1.a9a73216a28f2p-51"),
    ),
}


def _bits(omega_m):
    params = CosmologyParams.create(70.0, omega_m, min(1.0 - omega_m, 0.9999999999999999))
    laws = universe_laws(params)
    return tuple(x.hex() for x in (laws.k4u, laws.k7u, laws.k8u)), tuple(x.hex() for x in laws.k_shift)


def _moved():
    """The cosmologies whose bits differ from FROZEN, with the bits they have."""
    bits = {omega_m: _bits(omega_m) for omega_m in FROZEN}
    return {omega_m: b for omega_m, b in bits.items() if b != FROZEN[omega_m]}


def test_k_factor_bits_are_frozen():
    assert _moved() == {}


if __name__ == "__main__":
    moved = _moved()
    print(f"moved: {moved!r}" if moved else f"{sys.version.split()[0]}: all {len(FROZEN)} frozen")
    sys.exit(1 if moved else 0)
