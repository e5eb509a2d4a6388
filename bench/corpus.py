"""The benchmark corpus: generator sets, pinned answers and the workloads.

Every generator set is built here from the public `transvect` API.  Each
entry carries the answer it must produce.  Group orders come from closed
formulas written out below, not from the library; the rep(m) and
all-transposition diameters come from permutation arithmetic (the
benchmark's tests check them once against a permutation BFS); the rest of
each deterministic report is pinned by a digest of its `result` object,
taken from the code at the commit that defined the benchmark.

The seed picks the random irreducible sets of `order-large`, the seed
passed to `certify` and `stability_check`, and the generator order of the
`cayley-search` inputs (Cayley orders, diameters and histograms do not
depend on that order).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

from transvect import Mat, Transvection, build_symmetric_rep, field_create
from transvect import build_monomial_group, SesquiForm
from transvect.linalg import dot

F2 = field_create(2, 1)
F3 = field_create(3, 1)
F4 = field_create(2, 2)
F5 = field_create(5, 1)
F8 = field_create(2, 3)
F9 = field_create(3, 2)
F16 = field_create(2, 4)


# -- group orders from closed formulas ----------------------------------------


def order_sl(n: int, q: int) -> int:
    o = q ** (n * (n - 1) // 2)
    for k in range(2, n + 1):
        o *= q**k - 1
    return o


def order_su(n: int, q0: int) -> int:
    o = q0 ** (n * (n - 1) // 2)
    for k in range(2, n + 1):
        o *= q0**k - (-1) ** k
    return o


def order_sp(n: int, q: int) -> int:
    m = n // 2
    o = q ** (m * m)
    for k in range(1, m + 1):
        o *= q ** (2 * k) - 1
    return o


def order_monomial(n: int, a: int) -> int:
    return a ** (n - 1) * math.factorial(n)


# -- generator sets -----------------------------------------------------------


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def root_element(F, n: int, i: int, j: int, lam: int = 1) -> Transvection:
    """The elementary transvection x_ij(lam) = 1 + lam E_ij."""
    phi = [0] * n
    phi[j] = lam
    return Transvection(F, _unit(n, i), phi)


def sl2_generators(F) -> list[Transvection]:
    """x_12 over an additive basis of powers of a primitive element, plus
    x_21(1): generates SL2(F)."""
    g = F.primitive_element()
    out, lam = [], 1
    for _ in range(F.f):
        out.append(root_element(F, 2, 0, 1, lam))
        lam = F.mul(lam, g)
    return out + [root_element(F, 2, 1, 0)]


def sl3_generators(F) -> list[Transvection]:
    """x_12 over an additive basis of F, plus x_23(1) and x_31(1): the root
    groups X_12, X_23, X_31 and their commutators give every root group,
    so the set generates SL3(F)."""
    g = F.primitive_element()
    out, lam = [], 1
    for _ in range(F.f):
        out.append(root_element(F, 3, 0, 1, lam))
        lam = F.mul(lam, g)
    return out + [root_element(F, 3, 1, 2), root_element(F, 3, 2, 0)]


def _polar(v: tuple[int, ...]) -> tuple[int, ...]:
    """The covector f(., v) of the hyperbolic alternating form
    x0 y1 + x1 y0 + x2 y3 + x3 y2 + ... over GF(2)."""
    out = []
    for i in range(0, len(v), 2):
        out += [v[i + 1], v[i]]
    return tuple(out)


def _vectors(F, n: int):
    for code in range(1, F.q**n):
        yield tuple((code // F.q**i) % F.q for i in range(n))


def sp4_transvections() -> list[Transvection]:
    """All 15 symplectic transvections of GF(2)^4: Sp4(2), order 720."""
    return [Transvection(F2, v, _polar(v)) for v in _vectors(F2, 4)]


def o6plus_transvections() -> list[Transvection]:
    """The 28 transvections t_v with Q(v) = 1 for Q = x0x1 + x2x3 + x4x5:
    they generate O6+(2), order 40320."""
    out = []
    for v in _vectors(F2, 6):
        if (v[0] & v[1]) ^ (v[2] & v[3]) ^ (v[4] & v[5]):
            out.append(Transvection(F2, v, _polar(v)))
    return out


def su4_generators() -> list[Transvection]:
    """Six unitary transvections of a hyperbolic hermitian form over GF(4):
    SU4(2), order 25920."""
    gram = Mat(F4, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))
    h = SesquiForm(F4, gram, twist="theta")
    vs = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
          (1, 0, 1, 0), (1, 0, 2, 0)]
    return [Transvection(F4, v, h.dual_covector(v)) for v in vs]


def _random_invertible(F, n: int, rng: random.Random) -> Mat:
    while True:
        M = Mat(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)])
        if M.det():
            return M


def _random_transvection(F, n: int, rng: random.Random) -> Transvection:
    while True:
        v = [rng.randrange(F.q) for _ in range(n)]
        phi = [rng.randrange(F.q) for _ in range(n)]
        if any(v) and any(phi) and dot(F, phi, v) == 0:
            return Transvection(F, v, phi)


def random_sl3(F, rng: random.Random) -> list[Transvection]:
    """A random conjugate of `sl3_generators(F)` plus one random
    transvection.  Every transvection of GF(q)^3 lies in SL3(q), so the set
    still generates SL3(q): irreducible, defining field F, order known."""
    g = _random_invertible(F, 3, rng)
    g_inv = g.inv()
    T = [t.conjugate(g, g_inv) for t in sl3_generators(F)]
    T.append(_random_transvection(F, 3, rng))
    return T


def symmetric_rep_matrix(perm: tuple[int, ...]) -> Mat:
    """The matrix of a permutation of range(m) on the natural GF(2) module
    of S_m, in the basis `build_symmetric_rep(m)` uses."""
    m = len(perm)
    even = m % 2 == 0
    n = m - (2 if even else 1)
    cols = []
    for i in range(n):
        h = [0] * m
        h[perm[i]] ^= 1
        h[perm[m - 1]] ^= 1
        cols.append([h[k] ^ h[m - 2] if even else h[k] for k in range(n)])
    return Mat(F2, [[cols[j][i] for j in range(n)] for i in range(n)])


def inversions(perm: tuple[int, ...]) -> int:
    """Word length of a permutation over the adjacent transpositions."""
    m = len(perm)
    return sum(1 for i in range(m) for j in range(i + 1, m) if perm[i] > perm[j])


# -- entries -------------------------------------------------------------------

# Pinned sha256 prefixes of the canonical JSON of deterministic results.
DIGEST_LEN = 16


def digest(result) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_LEN]


@dataclass
class Entry:
    """One corpus entry: a call and the answer it must give.

    `kind` selects the call: a CLI call (classify, certify, diameter,
    profile for `diameter --profile transvections`, decompose) or a library
    call (stability, bidirectional).
    `command` is the end-to-end bucket it is timed under.
    """

    id: str
    kind: str
    gens: list[Transvection]
    expect: dict
    args: tuple[str, ...] = ()
    target: Mat | None = None
    source: str | None = None   # certify entry whose T0 a stability entry uses
    samples: int = 0

    @property
    def command(self) -> str:
        if self.kind == "classify":
            return "classify"
        if self.kind in ("certify", "stability"):
            return "certify"
        return "diameter"


def classify_entry(id, gens, tag, degree, order, dg=None):
    return Entry(id, "classify", gens, {"tag": tag, "field_degree": degree,
                                        "order": order, "digest": dg})


def order_large(seed: int) -> list[Entry]:
    rng = random.Random(seed)
    return [
        classify_entry("classify-rep9", build_symmetric_rep(9), "SymmetricOdd",
                       1, math.factorial(9), "21e0770d427a39b8"),
        classify_entry("classify-o6plus", o6plus_transvections(),
                       "OrthogonalPlus", 1, math.factorial(8), "66af287a287cb526"),
        classify_entry("classify-rep8", build_symmetric_rep(8),
                       "OrthogonalPlus", 1, math.factorial(8), "d0f6f12a36898222"),
        classify_entry("classify-random-sl3-5", random_sl3(F5, rng), "Linear",
                       1, order_sl(3, 5)),
        classify_entry("classify-random-sl3-4", random_sl3(F4, rng), "Linear",
                       2, order_sl(3, 4)),
        Entry("classify-random-sl3-8-budget", "classify", random_sl3(F8, rng),
              {"tag": "Linear", "field_degree": 3, "order": order_sl(3, 8),
               "budget": 200000},
              ("--budget-elements", "200000")),
    ]


STABILITY_SAMPLES = 10


def structure_small(seed: int) -> list[Entry]:
    def cert(id, gens, dg):
        return Entry(id, "certify", gens, {"digest": dg}, ("--seed", str(seed)))

    def stab(id, gens, tag, degree):
        return Entry(f"stability-{id}", "stability", gens,
                     {"tag": tag, "field_degree": degree},
                     source=f"certify-{id}", samples=STABILITY_SAMPLES)

    return [
        classify_entry("classify-m4-5", build_monomial_group(4, 5, F16),
                       "Monomial(5)", 4, order_monomial(4, 5), "7341a66d68fedd72"),
        classify_entry("classify-m4-7", build_monomial_group(4, 7, F8),
                       "Monomial(7)", 3, order_monomial(4, 7), "f7953a6f0b052e12"),
        classify_entry("classify-m3-5", build_monomial_group(3, 5, F16),
                       "Monomial(5)", 4, order_monomial(3, 5), "d63ea9b31c61bbed"),
        cert("certify-su4-2", su4_generators(), "47000f95bb3b2ca0"),
        cert("certify-sl2-16", sl2_generators(F16), "6f0c03acdda49dd0"),
        cert("certify-sl2-9", sl2_generators(F9), "d7ebb620843e29ab"),
        cert("certify-sl3-4", sl3_generators(F4), "86c4284a8b7d1696"),
        cert("certify-sl3-3", sl3_generators(F3), "ac2ff0966eb76320"),
        cert("certify-sp4-2", sp4_transvections(), "b08758c1e11ef2d3"),
        cert("certify-rep8", build_symmetric_rep(8), "0c20fbaee8d56dc1"),
        stab("sl3-3", sl3_generators(F3), "Linear", 1),
        stab("sp4-2", sp4_transvections(), "Symplectic", 1),
        stab("sl2-9", sl2_generators(F9), "Linear", 2),
    ]


def cayley_search(seed: int) -> list[Entry]:
    rng = random.Random(seed)

    def shuffled(T):
        T = list(T)
        rng.shuffle(T)
        return T

    def diam(id, gens, order, diameter, dg=None):
        return Entry(id, "diameter", shuffled(gens),
                     {"order": order, "diameter": diameter, "digest": dg})

    def prof(id, gens, order, diameter, count, dg=None):
        return Entry(id, "profile", shuffled(gens),
                     {"order": order, "diameter": diameter,
                      "transvections": count, "digest": dg},
                     ("--profile", "transvections"))

    w7 = tuple(reversed(range(7)))
    w8 = (2, 1, 0, 7, 6, 5, 4, 3)
    return [
        diam("diameter-su4-2", su4_generators(), order_su(4, 2), 16, "e9ebe4ca296f3555"),
        diam("diameter-rep7", build_symmetric_rep(7), math.factorial(7), 21, "998d4510dfc5a259"),
        diam("diameter-sl3-3", sl3_generators(F3), order_sl(3, 3), 10, "cba2071a5b3cbe8b"),
        diam("diameter-sl2-16", sl2_generators(F16), order_sl(2, 16), 10, "0562a0b945e2c31d"),
        diam("diameter-sp4-2", sp4_transvections(), order_sp(4, 2), 5, "ae0f52452a6389a0"),
        prof("profile-sp4-2", sp4_transvections(), order_sp(4, 2), 5, 15, "c59f107ebe6cc9ae"),
        prof("profile-sl3-2", sl3_generators(F2), order_sl(3, 2), 3, 21, "36b09bb970cdd862"),
        Entry("decompose-rep7", "decompose", shuffled(build_symmetric_rep(7)),
              {"length": inversions(w7)}, target=symmetric_rep_matrix(w7)),
        Entry("bidirectional-rep8", "bidirectional",
              shuffled(build_symmetric_rep(8)), {"distance": inversions(w8)},
              target=symmetric_rep_matrix(w8)),
    ]


WORKLOADS = {
    "order-large": order_large,
    "structure-small": structure_small,
    "cayley-search": cayley_search,
}


# -- checks --------------------------------------------------------------------


def _evaluate(gens: list[Transvection], word) -> Mat:
    F, n = gens[0].F, gens[0].n
    M = Mat.identity(F, n)
    for i, e in word:
        S = gens[i].matrix()
        M = M.mul(S if e == 1 else S.inv())
    return M


def check(entry: Entry, outcome) -> str | None:
    """None when the outcome is the pinned answer, else what differs."""
    exp = entry.expect
    if isinstance(outcome, dict) and "exit" in outcome:
        return f"exit code {outcome['exit']}"
    if entry.kind == "stability":
        if len(outcome) != entry.samples:
            return f"{len(outcome)} reports for {entry.samples} samples"
        bad = [(r["tag"], r["field_degree"]) for r in outcome
               if (r["tag"], r["field_degree"]) != (exp["tag"], exp["field_degree"])]
        return f"superset classified as {bad[0]}" if bad else None
    if entry.kind == "bidirectional":
        return None if outcome == exp["distance"] else f"distance {outcome}"
    res = outcome["result"]
    got = {}
    if entry.kind == "classify":
        got = {"tag": res["tag"], "field_degree": res["field_degree"]}
        budget = exp.get("budget")
        note = f"enumeration exceeded the {budget}-element budget"
        if res["order_predicted"] != exp["order"]:
            got["order_predicted"] = res["order_predicted"]
        if budget is None or res["order_enumerated"] is not None:
            if res["order_enumerated"] != exp["order"]:
                got["order_enumerated"] = res["order_enumerated"]
        elif note not in res["notes"]:
            got["notes"] = res["notes"]
    elif entry.kind in ("diameter", "profile"):
        got = {"order": res["order"], "diameter": res["diameter"]}
        if entry.kind == "profile":
            got["transvections"] = res["transvections"]
    elif entry.kind == "decompose":
        got = {"length": res["length"]}
        if _evaluate(entry.gens, res["word"]) != entry.target:
            return "the word does not evaluate to the target"
    if exp.get("digest") is not None:
        got["digest"] = digest(res)
    wrong = {k: v for k, v in got.items() if k in exp and v != exp[k]}
    wrong.update({k: v for k, v in got.items() if k not in exp})
    return f"got {wrong}, expected {exp}" if wrong else None
