"""Kernel microbenchmarks: field addition and multiplication, and Mat.mul,
each timed over an operand stream fixed by the seed.

A value is the median over REPEATS passes of the stream of the time per
call, loop overhead included, so that a change to the kernel (a table-driven
field addition, say) shows as a layer number of its own.
"""

from __future__ import annotations

import random
import statistics
import time

from transvect import Mat, field_create

STREAM = 20000
MATRICES = 400
REPEATS = 7


def _per_call(fn, operands) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for a, b in operands:
            fn(a, b)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(operands)


def _random_mat(F, n: int, rng: random.Random) -> Mat:
    return Mat(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)])


def kernel_metrics(seed: int) -> dict:
    rng = random.Random(seed)
    out = {}
    fields = {2: field_create(2, 1), 9: field_create(3, 2), 16: field_create(2, 4)}
    for q, F in fields.items():
        ops = [(rng.randrange(q), rng.randrange(q)) for _ in range(STREAM)]
        out[f"gf.add_ns.q{q}"] = {"value": _per_call(F.add, ops) * 1e9, "unit": "ns"}
    F16 = fields[16]
    ops = [(rng.randrange(16), rng.randrange(16)) for _ in range(STREAM)]
    out["gf.mul_ns.q16"] = {"value": _per_call(F16.mul, ops) * 1e9, "unit": "ns"}
    for n, F in ((6, fields[2]), (4, field_create(2, 2))):
        mats = [(_random_mat(F, n, rng), _random_mat(F, n, rng))
                for _ in range(MATRICES)]
        out[f"linalg.mat_mul_us.n{n}q{F.q}"] = {
            "value": _per_call(Mat.mul, mats) * 1e6, "unit": "us"}
    return out
