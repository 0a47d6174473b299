"""Shared helpers for the test suite."""

from pathlib import Path

from whitadd.golden import decode, entry_map, load_golden

GOLDEN_DIR = Path(__file__).parent / "golden"


def rel(a, b) -> float:
    """Relative gap between two scalars, floored to dodge 0/0."""
    a, b = complex(a), complex(b)
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def load_entries() -> dict:
    """identity_id -> entry across every golden group."""
    merged = {}
    for payload in load_golden(GOLDEN_DIR).values():
        merged.update(entry_map(payload))
    return merged


def golden_value(entries: dict, identity_id: str, side: str = "lhs"):
    return decode(entries[identity_id][side])


def golden_tol(entries: dict, identity_id: str, floor: float = 1e-12) -> float:
    """Comparison tolerance for a double-precision recomputation.

    Entries recorded at d digits carry far more precision than a hardware
    route can reproduce, so the tolerance is the hardware floor unless the
    entry itself is step- or difference-limited to fewer digits.
    """
    digits = entries[identity_id]["digits"]
    if digits == 0:
        return 0.0
    return max(floor, 10.0 ** (2 - digits))


def assert_rel(a, b, tol, label=""):
    got = rel(a, b)
    assert got <= tol, f"{label} rel={got:.3e} > {tol:.1e} ({a!r} vs {b!r})"
