"""Plain reference arithmetic that the tests check the package against.

Vectors of F_p^n are coordinate tuples.  Group-ring elements are raw tables
in the kernels' layouts, over the points of F_p^n in canonical order
(coordinate 0 most significant): an F_p[F_p^n] element is a (p^n,) table of
residues, a Z[w][F_p^n] element a coefficient-major (p-1, p^n) table whose
columns are Z[w] elements in the power basis w^0..w^(p-2).  A Z[w] element
here is a tuple of p-1 Python ints.  All arithmetic is schoolbook and exact,
O(p^(2n)) for a product, and shares no code with the package.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def points(p: int, n: int) -> list[tuple[int, ...]]:
    """F_p^n in canonical order."""
    return list(product(range(p), repeat=n))


def _index(x, p: int) -> int:
    return sum(int(c) * p ** (len(x) - 1 - i) for i, c in enumerate(x))


def _sum_index(x, y, p: int) -> int:
    return _index([(a + b) % p for a, b in zip(x, y)], p)


def combination(p: int, coeffs, rows) -> tuple[int, ...]:
    """sum(c * row) mod p over a nonempty list of coordinate rows, one coefficient each."""
    assert len(coeffs) == len(rows) > 0
    return tuple(sum(int(c) * int(row[i]) for c, row in zip(coeffs, rows)) % p for i in range(len(rows[0])))


def dot(p: int, x, y) -> int:
    """<x, y> mod p: the combination of y's coordinates, as 1-rows, by x."""
    return combination(p, x, [(c,) for c in y])[0]


# ---------------------------------------------------------------------------
# F_p[F_p^n]


def fp_mul(a, b, p: int, n: int) -> np.ndarray:
    """General convolution: (a*b)[x + y] = sum of a[x] b[y], mod p."""
    pts = points(p, n)
    out = [0] * len(pts)
    for i, x in enumerate(pts):
        if not a[i]:  # adds nothing; a sparse first factor then costs O(p^n)
            continue
        for j, y in enumerate(pts):
            out[_sum_index(x, y, p)] += int(a[i]) * int(b[j])
    return np.array([c % p for c in out], dtype=np.int64)


def fp_binomial(p: int, n: int, v) -> np.ndarray:
    """The element 1 - g^v."""
    table = np.zeros(p**n, dtype=np.int64)
    table[0] += 1
    table[_index(v, p)] -= 1
    return table % p


# ---------------------------------------------------------------------------
# Z[w], w = e^(2*pi*i/p)


def zw_reduce(raw, p: int) -> tuple[int, ...]:
    """Power-basis coordinates of sum_e raw[e] w^e, by w^p = 1 and
    w^(p-1) = -(1 + w + ... + w^(p-2))."""
    folded = [0] * p
    for e, c in enumerate(raw):
        folded[e % p] += int(c)
    return tuple(c - folded[p - 1] for c in folded[: p - 1])


def root_power(p: int, t: int) -> tuple[int, ...]:
    """w^t."""
    return zw_reduce([0] * (t % p) + [1], p)


def w_shift(c, t: int, p: int) -> tuple[int, ...]:
    """c * w^t, by moving every exponent up by t."""
    return zw_reduce([0] * (t % p) + list(c), p)


def zw_add(a, b) -> tuple[int, ...]:
    return tuple(int(x) + int(y) for x, y in zip(a, b))


def zw_mul(a, b, p: int) -> tuple[int, ...]:
    raw = [0] * (2 * p - 3)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            raw[i + j] += int(x) * int(y)
    return zw_reduce(raw, p)


# ---------------------------------------------------------------------------
# Z[w][F_p^n] and its Fourier transform


def cyc_unit(p: int, n: int) -> np.ndarray:
    table = np.zeros((p - 1, p**n), dtype=object)
    table[0, 0] = 1
    return table


def cyc_binomial(p: int, n: int, v, t: int) -> np.ndarray:
    """The element 1 - w^t g^v."""
    table = cyc_unit(p, n)
    col = _index(v, p)
    table[:, col] = zw_add(table[:, col], [-c for c in root_power(p, t)])
    return table


def cyc_mul(a, b, p: int, n: int) -> np.ndarray:
    """General convolution with exact Z[w] products, as an object table."""
    pts = points(p, n)
    support = [[(x, tuple(t[:, i])) for i, x in enumerate(pts) if any(t[:, i])] for t in (a, b)]
    out = [(0,) * (p - 1)] * len(pts)
    for x, ax in support[0]:
        for y, by in support[1]:
            k = _sum_index(x, y, p)
            out[k] = zw_add(out[k], zw_mul(ax, by, p))
    return np.array(out, dtype=object).T


def fourier_transform(h, p: int, n: int) -> list[tuple[int, ...]]:
    """[sum_v w^<x,v> h[v] for x in points(p, n)], exactly in Z[w]."""
    pts = points(p, n)
    out = []
    for x in pts:
        acc = (0,) * (p - 1)
        for j, v in enumerate(pts):
            acc = zw_add(acc, w_shift(h[:, j], sum(a * b for a, b in zip(x, v)), p))
        out.append(acc)
    return out


def fourier_zero_set(h, p: int, n: int) -> list[tuple[int, ...]]:
    """The points x at which the transform of h is exactly 0, in canonical order."""
    return [x for x, f in zip(points(p, n), fourier_transform(h, p, n)) if not any(f)]


# ---------------------------------------------------------------------------
# Arithmetic sets: the dense verifier, every element against every difference
#
# A mask over F_p passes iff
#   every a with mask[a]: some b != 0 has mask[(a+i*b) % p] for all |i| <= r,
#   every a without:      some b != 0 has mask[(a+i*b) % p] for all 1 <= i <= r.


def progression_indices(p: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tensors (a + i*b) % p over (a, b != 0, i), for |i| <= r and 1 <= i <= r."""
    a = np.arange(p).reshape(p, 1, 1)
    b = np.arange(1, p).reshape(1, p - 1, 1)
    full = (a + np.arange(-r, r + 1).reshape(1, 1, 2 * r + 1) * b) % p
    pos = (a + np.arange(1, r + 1).reshape(1, 1, r) * b) % p
    return full, pos


def element_ok(masks, r: int, p: int) -> np.ndarray:
    """Per-element verdicts for a bool mask of shape (p,) or a batch (B, p).

    Entry a (or [a, s] for batch row s) is True iff element a has a valid
    difference in that mask; the mask passes iff every entry is True.
    O(p^2 r) per mask.
    """
    full, pos = progression_indices(p, r)
    cols = np.asarray(masks, dtype=bool).T
    in_ok = cols[full].all(axis=2).any(axis=1)
    out_ok = cols[pos].all(axis=2).any(axis=1)
    return np.where(cols, in_ok, out_ok)


def arithmetic_violations(members, r: int, p: int) -> list[int]:
    """The elements of F_p without a valid difference for the set `members`, ascending."""
    mask = np.zeros(p, dtype=bool)
    mask[list(members)] = True
    return np.nonzero(~element_ok(mask, r, p))[0].tolist()


def _valid(members: set, r: int, p: int, a: int, b: int) -> bool:
    lo = -r if a in members else 1
    return b % p != 0 and all((a + i * b) % p in members for i in range(lo, r + 1))


def difference_ok(members, r: int, p: int, a: int, b: int) -> bool:
    """The definition for one element and one difference, b taken mod p:
    b != 0 and a + i*b in the set for |i| <= r (a a member) or 1 <= i <= r."""
    return _valid({int(x) % p for x in members}, r, p, a, b)


def least_differences(members, r: int, p: int):
    """Yield each element's least valid difference in 1..p-1, or None, trying
    every b, for a = 0, 1, ..., p-1 (lazily, so a caller may stop early)."""
    members = {int(x) % p for x in members}
    for a in range(p):
        yield next((b for b in range(1, p) if _valid(members, r, p, a, b)), None)
