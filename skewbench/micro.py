"""Unit-cost micro-loops for ring arithmetic and frame map application.

Each loop runs over a seeded pool of elements of one ring, with no tracer
installed, and reports the median cost of one call in microseconds after
subtracting the cost of the bare loop.  The traced run multiplies these
unit costs by the call counts it observed to estimate the time spent in
ring arithmetic, which is too fine to span.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

from skewpoly import FiniteField, LinearMap, QuaternionRing

from workloads import quaternion_frame, random_element

POOL = 64
REPEATS = 5
# calls per timed repeat, by how slow one call is
CALLS_FAST, CALLS_SLOW = 8192, 1024

# rings and maps named by the per-layer metrics
NAMED_RINGS = ("gf5", "gf9", "gf256", "gf65536", "quat")
NAMED_MAPS = ("linear-gf9", "linear-gf65536", "quat-inner")


# one loop per operation, so the timed body is the bare operator call
def _bare(pairs, rounds):
    t = perf_counter()
    for _ in range(rounds):
        for a, b in pairs:
            pass
    return perf_counter() - t


def _mul(pairs, rounds):
    t = perf_counter()
    for _ in range(rounds):
        for a, b in pairs:
            a * b
    return perf_counter() - t


def _add(pairs, rounds):
    t = perf_counter()
    for _ in range(rounds):
        for a, b in pairs:
            a + b
    return perf_counter() - t


def _inv(pairs, rounds):
    t = perf_counter()
    for _ in range(rounds):
        for a, b in pairs:
            a.inv()
    return perf_counter() - t


def _apply(pairs, rounds):
    t = perf_counter()
    for _ in range(rounds):
        for m, a in pairs:
            m.apply(a)
    return perf_counter() - t


def _per_call_us(loop, pairs, calls):
    rounds = max(1, calls // len(pairs))
    samples = []
    for _ in range(REPEATS):
        samples.append((loop(pairs, rounds) - _bare(pairs, rounds)) / (rounds * len(pairs)))
    return statistics.median(samples) * 1e6


def _slow(ring):
    return not ring.is_finite or ring.q > 4096


def ring_unit_costs(ring, seed):
    """{"mul": us, "add": us, "inv": us} for one ring."""
    rng = random.Random(f"micro:{seed}")
    pool = [random_element(ring, rng, nonzero=True) for _ in range(POOL)]
    pairs = list(zip(pool, pool[1:] + pool[:1]))
    calls = CALLS_SLOW if _slow(ring) else CALLS_FAST
    return {kind: _per_call_us(loop, pairs, calls)
            for kind, loop in (("mul", _mul), ("add", _add), ("inv", _inv))}


def map_unit_costs(rings, seed):
    """us per apply of the named additive maps: table-backed Frobenius on
    GF(9), digit-arithmetic Frobenius on GF(2^16), and the interpreted
    delta_1 tree of the quaternion inner frame."""
    rng = random.Random(f"micro-maps:{seed}")
    qframe = quaternion_frame(rings["quat"], validate=False)
    maps = {
        "linear-gf9": LinearMap.frobenius(rings["gf9"]),
        "linear-gf65536": LinearMap.frobenius(rings["gf65536"]),
        "quat-inner": qframe.delta[0],
    }
    out = {}
    for name, m in maps.items():
        ring = rings["quat"] if name == "quat-inner" else m.fld
        pairs = [(m, random_element(ring, rng)) for _ in range(POOL)]
        m.apply(pairs[0][1])  # build the lazy table before timing
        out[name] = _per_call_us(_apply, pairs, CALLS_SLOW if _slow(ring) else CALLS_FAST)
    return out


def named_rings(have):
    """The five named rings, reusing any the workload already built."""
    out = {}
    for label in NAMED_RINGS:
        if label in have:
            out[label] = have[label]
        elif label == "quat":
            out[label] = QuaternionRing()
        else:
            p, k = {"gf5": (5, 1), "gf9": (3, 2), "gf256": (2, 8), "gf65536": (2, 16)}[label]
            out[label] = FiniteField(p, k)
    return out
