"""Exact combinatorial kernel: Stirling, Lah and Bernoulli numbers, factorials.

All values are exact (Python ints / fractions.Fraction), memoized in
row-complete tables so concurrent readers never observe a torn row.

Conventions:
  * Bernoulli numbers use B_1 = -1/2 (the x/(e^x - 1) generating function).
  * (x)_n with n < 0 means 1/((x+1)(x+2)...(x+|n|)).
  * x**(rising n) with n < 0 means 1/((x-1)(x-2)...(x-|n|)).

Both factorials are one integer product over q^|n| at x = u/q, rounded
once for a float x; the generalized binomial is the exact falling one over n!.

The integer kernels that the exact and numeric layers share live here too,
so the numeric layer loads no polynomial arithmetic: rationals as numerators
over one denominator, the difference table that multiplies an EGF by e^{rx},
and the Taylor shift of an integer coefficient vector.
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Iterable, Iterator, Sequence, Union

Scalar = Union[Fraction, int, float]

_lock = threading.Lock()

# Row-complete triangular caches; a row is appended only once fully built.
_stirling1_rows: list[list[int]] = [[1]]
_stirling2_rows: list[list[int]] = [[1]]
_bernoulli_cache: list[Fraction] = [Fraction(1)]


def _grow(rows: list[list[int]], n: int, first_kind: bool) -> None:
    # c(m+1, k) = c(m, k-1) + m c(m, k) and S(m+1, k) = S(m, k-1) + k S(m, k)
    with _lock:
        while len(rows) <= n:
            m = len(rows) - 1
            prev = rows[m] + [0]
            rows.append([(prev[k - 1] if k else 0) + (m if first_kind else k) * prev[k]
                         for k in range(m + 2)])


def stirling_row(first_kind: bool, n: int) -> list[int]:
    """Row n, k = 0..n, of the unsigned first-kind table c(n, k) or, with
    first_kind False, of the second-kind table S(n, k).

    The row is the cached list itself: read it, never mutate it.
    """
    if n < 0:
        raise ValueError("indices must be nonnegative")
    rows = _stirling1_rows if first_kind else _stirling2_rows
    if n >= len(rows):
        _grow(rows, n, first_kind)
    return rows[n]


def stirling_first_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind c(n, k).

    Counts permutations of n elements with k cycles; satisfies
    c(n+1, k) = c(n, k-1) + n*c(n, k) with c(0, 0) = 1.
    """
    if k < 0:
        raise ValueError("indices must be nonnegative")
    row = stirling_row(True, n)
    return row[k] if k <= n else 0


def stirling_first_signed(n: int, k: int) -> int:
    """Signed Stirling number s(n, k) = (-1)^(n-k) c(n, k)."""
    c = stirling_first_unsigned(n, k)
    return -c if (n - k) % 2 else c


def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k) (set partitions).

    Satisfies S(n+1, k) = k*S(n, k) + S(n, k-1) with S(0, 0) = 1.
    """
    if k < 0:
        raise ValueError("indices must be nonnegative")
    row = stirling_row(False, n)
    return row[k] if k <= n else 0


def lah_terms(n: int) -> Iterator[int]:
    """L(n,0), ..., L(n,n), the unsigned Lah numbers L(n,k) = C(n-1,k-1) n!/k!,
    the coefficients of x^(rising n) = sum_k L(n,k) (x)_k.

    Each term is computed upward from L(n,1) = n! as it is read, so a reader
    that stops after k terms pays for k of them.
    """
    if not n:
        yield 1
        return
    yield 0
    term = math.factorial(n)
    for k in range(1, n + 1):
        yield term
        # L(n,k+1) = L(n,k) (n-k) / (k(k+1)), an exact division
        term = term * (n - k) // (k * (k + 1))


def _bernoulli_numbers(n: int) -> list[Fraction]:
    # B_0..B_n from the tangent numbers T_1..T_(n/2) (Brent & Harvey 2011,
    # Algorithm TangentNumbers): B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))
    m = n // 2
    t = [0, 1] + [0] * max(m - 1, 0)
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    out = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (n - 1)
    for k in range(1, m + 1):
        out[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t[k], 4 ** k * (4 ** k - 1))
    return out[:n + 1]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with the B_1 = -1/2 convention."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n >= len(_bernoulli_cache):
        with _lock:
            if n >= len(_bernoulli_cache):
                # at least doubling keeps callers that step n by one linear
                _bernoulli_cache[:] = _bernoulli_numbers(max(n, 2 * len(_bernoulli_cache)))
    return _bernoulli_cache[n]


def _argument_ratio(x: Scalar, what: str) -> tuple[int, int]:
    """x as an exact (numerator, denominator > 0) pair, a float as its dyadic
    value, another type through Fraction(). Every scalar a caller hands either
    layer (argument, parameter, coefficient or sequence value) becomes a ratio
    here and only here. Its ValueError names the function what: "needs a
    finite argument" for NaN or inf, "needs a number" for a value that does
    not parse as one, such as "abc" or "1/0"."""
    try:
        return (x if isinstance(x, (int, float, Fraction)) else Fraction(x)).as_integer_ratio()
    except (OverflowError, ValueError, ZeroDivisionError):
        pass
    try:
        nonfinite = not math.isfinite(float(x))
    except ValueError:
        nonfinite = False
    raise ValueError(f"{what} needs {'a finite argument' if nonfinite else 'a number'}, got {x!r}")


def binomial_general(x: Scalar, n: int) -> Scalar:
    """Generalized binomial coefficient binom(x, n) = (x)_n / n!, exact for int
    or Fraction x; for a float x, the exact value at x rounded once."""
    if n < 0:
        raise ValueError("lower index must be nonnegative")
    v = falling_factorial(Fraction(*_argument_ratio(x, "binomial_general")), n) / math.factorial(n)
    return float(v) if isinstance(x, float) else v


def falling_factorial(x: Scalar, n: int) -> Scalar:
    """(x)_n for any integer n.

    n >= 0: x(x-1)...(x-n+1), empty product = 1.
    n < 0:  1/((x+1)(x+2)...(x+|n|)); raises ZeroDivisionError when a
    factor vanishes.
    """
    return _factorial_product(x, n, -1, "falling_factorial")


def rising_factorial(x: Scalar, n: int) -> Scalar:
    """Pochhammer x^(rising n) for any integer n.

    n >= 0: x(x+1)...(x+n-1); n < 0: 1/((x-1)(x-2)...(x-|n|)).
    Satisfies x^(rising n) = (-1)^n (-x)_n for n >= 0.
    """
    return _factorial_product(x, n, 1, "rising_factorial")


def _factorial_product(x: Scalar, n: int, step: int, what: str) -> Scalar:
    # x (x + step) ... (x + (n-1) step) for n >= 0, and for n < 0 the
    # reciprocal of the |n| factors from x - step on, stepping by -step; at
    # x = u/q an integer over q^|n|, rounded once for a float x
    u, q = _argument_ratio(x, what)
    d = step * q
    if n >= 0:
        num, den = math.prod(range(u, u + n * d, d)), q ** n
    else:
        num, den = q ** -n, math.prod(range(u - d, u + (n - 1) * d, -d))
        if not den:
            raise ZeroDivisionError("vanishing factor in negative-index factorial")
    return num / den if isinstance(x, float) else Fraction(num, den)


def _integers(values: Iterable, what: str) -> tuple[list[int], int]:
    """_over_lcm of the values, each read by _argument_ratio for the function what."""
    return _over_lcm([_argument_ratio(v, what) for v in values])


def _over_lcm(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Numerators of (numerator, positive denominator) pairs over their lcm
    denominator, and that denominator."""
    den = math.lcm(*(d for _, d in pairs))
    return [c * (den // d) for c, d in pairs], den


def _pascal(v: Iterable[tuple[int, int]], r: int) -> Iterator[tuple[int, int]]:
    """h_k = sum_n binom(k,n) r^(k-n) v_n for the rationals v_n given as
    (numerator, positive denominator) pairs, yielded once v_k is read as the
    pair (numerator, D_k) over D_k = lcm(d_0, ..., d_k): the EGF of v times
    e^{rx}.

    h_k = ((E + r)^k v)_0 for the shift (E v)_n = v_(n+1), the corner of a
    difference table row_(i+1) = E row_i + r row_i with row_0 = v (Knuth,
    TAOCP Vol. 2, 4.6.4, tabulating by differences). The table is built one
    antidiagonal at a time: v_k starts the next one, whose entries are the
    prefix sums b_(i+1) = b_i + r a_i over the last one, a, and whose end is
    h_k. Its entries are numerators over the one denominator D_k; where d_k
    does not divide D_(k-1), the last antidiagonal is rescaled to D_k first.
    The first m outputs take m^2/2 steps, an addition or a subtraction for
    r = +-1 and else also a product with the small r, and read only
    v_0..v_(m-1); integer v, over 1, is never rescaled.
    """
    step = operator.sub if r == -1 else operator.add
    diagonal: list[int] = []
    den = 1
    for a, d in v:
        if d != den:
            if den % d:
                grow = d // math.gcd(den, d)
                den *= grow
                diagonal = list(map(operator.mul, diagonal, repeat(grow)))
            a *= den // d
        diagonal = list(accumulate(diagonal if abs(r) == 1 else
                                   map(operator.mul, diagonal, repeat(r)), step, initial=a))
        yield diagonal[-1], den


def _taylor_shift(u: int, q: int, nums: Sequence[int]) -> tuple[Iterator[int], int]:
    """e^{aL} for a = u/q, q > 0, on numerators in a basis with L b_n = n b_(n-1):
    out_i = sum_j binom(i+j, j) a^j c_(i+j), the coefficients of p(x + a)
    for p = sum_j c_j x^j. Returns the out_i numerators, computed one at a
    time as they are read, and their common denominator.

    Then p(x + a) q^(n-1) = sum_j r_j (y + u)^j at y = q x, with
    r_j = c_j q^(n-1-j). In the form of Shaw & Traub ("On the number of
    multiplications for the evaluation of a polynomial and some of its
    derivatives", J. ACM 21, 1974), the shift by u is the shift by 1 of the
    scaled s_j = r_j u^j, whose coefficient i is divided by u^i. Horner's
    shift by 1 (von zur Gathen & Gerhard, "Fast algorithms for Taylor shifts
    and certain difference equations", ISSAC 1997, method H) is a pass of
    suffix sums per coefficient: pass i replaces each s_j, j >= i, by
    s_j + ... + s_(n-1), and s_i is then final. So coefficient i costs n - i
    additions and one exact division, the whole vector n^2/2 additions and
    no product in the loop. The result r_i q^i is over q^(n-1).
    """
    if not (u and nums):
        return iter(nums), 1
    n = len(nums)
    qpow = list(accumulate(repeat(q, n - 1), operator.mul, initial=1))
    upow = list(accumulate(repeat(u, n - 1), operator.mul, initial=1))

    def rows() -> Iterator[int]:
        # s reversed, so each pass of suffix sums is a prefix sum that ends at s_i
        tail = list(map(operator.mul, map(operator.mul, reversed(nums), qpow), reversed(upow)))
        for qi, ui in zip(qpow, upow):
            tail = list(accumulate(tail))
            yield tail.pop() // ui * qi

    return rows(), qpow[-1]
