"""Integer partitions, sign strings, and one-variable skew Hall-Littlewood evaluation.

Partitions are plain tuples of non-negative ints, sorted non-increasing,
normally stored with trailing zeros stripped (the RSK module keeps fixed row
counts and strips only at its boundaries).  Sign strings are tuples over
{+1, -1} and serialize as strings over "+-".
"""

from __future__ import annotations

import operator
from itertools import combinations

Partition = tuple  # tuple[int, ...], non-increasing
SignString = tuple  # tuple[int, ...], entries +1 / -1

EMPTY: Partition = ()


def as_partition(parts) -> Partition:
    """Validate and canonicalize: non-increasing, >= 0, trailing zeros stripped."""
    parts = tuple(map(int, parts))
    if parts and min(parts) < 0:
        raise ValueError(f"negative part in {parts}")
    if any(map(operator.lt, parts, parts[1:])):
        raise ValueError(f"parts not sorted non-increasing: {parts}")
    return strip_zeros(parts)


def strip_zeros(parts: Partition) -> Partition:
    n = len(parts)
    while n and parts[n - 1] == 0:
        n -= 1
    return tuple(parts[:n])


def size(lam: Partition) -> int:
    """Number of boxes |lambda|."""
    return sum(lam)


def num_rows(lam: Partition) -> int:
    """lambda'_1, the number of nonzero parts."""
    return sum(1 for p in lam if p > 0)


def conjugate(lam: Partition) -> Partition:
    """Conjugate partition: lambda'_j = #{i : lambda_i >= j}."""
    lam = strip_zeros(lam)
    if not lam:
        return ()
    out = [0] * lam[0]
    for p in lam:
        for j in range(p):
            out[j] += 1
    return tuple(out)


def multiplicities(lam: Partition) -> dict:
    """Map j -> m_j(lambda) = #{i : lambda_i = j} over j >= 1."""
    out: dict = {}
    for p in lam:
        if p > 0:
            out[p] = out.get(p, 0) + 1
    return out


def interlaces(lam: Partition, mu: Partition) -> bool:
    """True iff lambda_1 >= mu_1 >= lambda_2 >= mu_2 >= ... (mu precedes lam)."""
    lam = strip_zeros(lam)
    mu = strip_zeros(mu)
    for i in range(max(len(lam), len(mu))):
        li = lam[i] if i < len(lam) else 0
        mi = mu[i] if i < len(mu) else 0
        li1 = lam[i + 1] if i + 1 < len(lam) else 0
        if not (li >= mi >= li1):
            return False
    return True


# ---------------------------------------------------------------------------
# sign strings and the partition <-> string bijection


_SIGN_OF = {"+": 1, "-": -1}
_SIGNS = frozenset((1, -1))


def parse_signs(s) -> SignString:
    """Accept '+-' strings or iterables of +/-1."""
    if isinstance(s, str):
        try:
            return tuple(map(_SIGN_OF.__getitem__, s))
        except KeyError as exc:
            raise ValueError(f"bad sign character {exc.args[0]!r}") from None
    out = tuple(map(int, s))
    if not _SIGNS.issuperset(out):
        raise ValueError(f"signs must be +1/-1, got {out}")
    return out


def signs_to_str(signs: SignString) -> str:
    return "".join("+" if x == 1 else "-" for x in signs)


def sign_counts(signs: SignString) -> tuple:
    """(number of pluses, number of minuses)."""
    p = sum(1 for x in signs if x == 1)
    return p, len(signs) - p


def prefix_counts(signs: SignString, i: int) -> tuple:
    """(p(i), m(i)): pluses and minuses among the first i entries."""
    p = sum(1 for x in signs[:i] if x == 1)
    return p, i - p


def in_sign_class(signs: SignString, M: int, N: int, first: int) -> bool:
    """Membership in S^+_{M,N} (first=+1) or S^-_{M,N} (first=-1)."""
    p, m = sign_counts(signs)
    if (p, m) != (M, N) or len(signs) != M + N:
        return False
    return signs[0] == first and signs[-1] == -first


def enumerate_sign_class(M: int, N: int, first: int = 1):
    """All strings in S^{+/-}_{M,N}, lexicographic in the inner plus positions.

    The head sign is `first`, the tail is its opposite; M-1 pluses remain for
    the inner slots when first=+1, M-1 likewise when first=-1 (the tail is +).
    """
    if M < 1 or N < 1:
        raise ValueError("need M, N >= 1")
    inner = M + N - 2
    inner_pluses = M - 1  # one plus sits at the head (+ class) or tail (- class)
    for plus_slots in combinations(range(inner), inner_pluses):
        s = [-1] * inner
        for j in plus_slots:
            s[j] = 1
        yield tuple([first] + s + [-first])


def partition_from_string(signs: SignString, p: int, m: int) -> Partition:
    """Trace p up steps (+) and m right steps (-); diagram framed above-left.

    lambda_i = number of minuses preceding the (p+1-i)-th plus.
    """
    signs = parse_signs(signs)
    cp, cm = sign_counts(signs)
    if (cp, cm) != (p, m):
        raise ValueError(f"expected {p} pluses and {m} minuses, got {cp}/{cm}")
    return _traced_partition(signs)


def _traced_partition(signs: SignString) -> Partition:
    """partition_from_string for a parsed sign string, its counts unchecked."""
    parts = []
    minuses = 0
    for x in signs:
        if x == -1:
            minuses += 1
        else:
            parts.append(minuses)
    parts.reverse()
    return strip_zeros(tuple(parts))


def string_from_partition(lam: Partition, p: int, m: int) -> SignString:
    """Inverse bijection; lam must fit in the p x m box."""
    lam = as_partition(lam)
    if lam and lam[0] > m:
        raise ValueError(f"{lam} does not fit: lambda_1 = {lam[0]} > {m}")
    if num_rows(lam) > p:
        raise ValueError(f"{lam} does not fit: {num_rows(lam)} rows > {p}")
    full = list(lam) + [0] * (p - len(lam))
    out = []
    done = 0
    for k in range(p):  # k-th plus preceded by full[p-1-k] minuses
        need = full[p - 1 - k]
        out.extend([-1] * (need - done))
        done = need
        out.append(1)
    out.extend([-1] * (m - done))
    return tuple(out)


# ---------------------------------------------------------------------------
# one-variable skew Hall-Littlewood polynomials


def skew_p_one(lam: Partition, mu: Partition, a: float, t: float) -> float:
    """P_{lam/mu}(a) = a^{|lam|-|mu|} prod_{i: m_i(lam)+1 = m_i(mu)} (1 - t^{m_i(mu)}).

    Zero unless mu interlaces below lam.  Assumes 0 < t < 1 but evaluates
    the same rational expression for any t.
    """
    if not interlaces(lam, mu):
        return 0.0
    mlam = multiplicities(lam)
    w = float(a) ** (size(lam) - size(mu))
    for i, mi in multiplicities(mu).items():
        if mlam.get(i, 0) + 1 == mi:
            w *= 1.0 - t**mi
    return w


def skew_q_one(lam: Partition, mu: Partition, b: float, t: float) -> float:
    """Q_{lam/mu}(b) = b^{|lam|-|mu|} prod_{i: m_i(lam) = m_i(mu)+1} (1 - t^{m_i(lam)})."""
    if not interlaces(lam, mu):
        return 0.0
    mmu = multiplicities(mu)
    w = float(b) ** (size(lam) - size(mu))
    for i, mi in multiplicities(lam).items():
        if mi == mmu.get(i, 0) + 1:
            w *= 1.0 - t**mi
    return w


# ---------------------------------------------------------------------------
# enumeration helpers


def partitions_in_box(rows: int, cols: int):
    """All partitions with at most `rows` rows and parts <= cols."""

    def rec(prefix, bound, left):
        yield tuple(prefix)
        if left == 0:
            return
        for v in range(1, bound + 1):
            prefix.append(v)
            yield from rec(prefix, v, left - 1)
            prefix.pop()

    yield from rec([], cols, rows)


def interlacing_above(mu: Partition, rows: int, cap: int):
    """All lam with mu interlacing below lam, at most `rows` rows, parts <= cap.

    Constraints: lam_1 >= mu_1, mu_{i-1} >= lam_i >= mu_i, lam_1 <= cap.
    Emitted with trailing zeros stripped, each lam exactly once.
    """
    mu = strip_zeros(mu)
    if len(mu) > rows:
        return

    def rec(i, acc):
        if i == rows:
            yield strip_zeros(tuple(acc))
            return
        lo = mu[i] if i < len(mu) else 0
        hi = cap if i == 0 else (mu[i - 1] if i - 1 < len(mu) else 0)
        for v in range(lo, hi + 1):
            acc.append(v)
            yield from rec(i + 1, acc)
            acc.pop()

    yield from rec(0, [])
