"""Security and efficiency figures for a deployed scheme.

All quantities are exact rationals (fractions.Fraction), never floats:
the interesting values overflow doubles long before they stop mattering.

For a code of length n and dimension k over a ring of size q:

  extension_count(k, t, q)
      X(k, t) = prod_{i=0}^{k-1} (q^k - q^i)
                / ( (k-t)! * prod_{i=0}^{t-1} (q^t - q^i) ),
      the number of ways coalitions of t participants extend to full
      authorized coalitions.  X(k, 0) counts the minimal authorized
      coalitions themselves, and X(k, k) = 1.

  guess_probability(k, t, q)
      1 / (X(k, t) * q^(k - t)): the chance that t pooled participants
      guess the remaining structure and the secret outright.

  information_rate(n)
      n / (n + 2): each participant stores n + 2 residues to protect n.

The counting arguments treat coefficient rows like vectors over a
field; over Z_{p^e} with e > 1 the unit/nilpotent split makes them
heuristics rather than exact counts, which table_row flags.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import factorial

from .errors import BadParameters
from .ring import ring_of_size


def extension_count(k: int, t: int, q: int) -> Fraction:
    """X(k, t) as an exact rational."""
    if q < 2:
        raise BadParameters(f"ring size must be >= 2, got {q}")
    if not 0 <= t <= k:
        raise BadParameters(f"need 0 <= t <= k, got t={t}, k={k}")
    numerator = 1
    for i in range(k):
        numerator *= q**k - q**i
    denominator = factorial(k - t)
    for i in range(t):
        denominator *= q**t - q**i
    return Fraction(numerator, denominator)


def guess_probability(k: int, t: int, q: int) -> Fraction:
    """Probability that a t-coalition guesses its way to the secret."""
    return 1 / (extension_count(k, t, q) * q ** (k - t))


def information_rate(n: int) -> Fraction:
    """Secret residues per stored residue: n / (n + 2)."""
    if n < 1:
        raise BadParameters(f"length must be >= 1, got {n}")
    return Fraction(n, n + 2)


@dataclass(frozen=True)
class SecurityReport:
    """One analyzed parameter set; every rational field is exact."""

    n: int
    k: int
    t: int
    q: int
    extension_count: Fraction
    guess_probability: Fraction
    information_rate: Fraction
    coalition_count: Fraction
    ring_heuristic_flag: bool

    @property
    def codeword_count(self) -> int:
        """q^k, the number of share codewords available to the dealer."""
        return self.q**self.k

    @property
    def secret_space(self) -> int:
        """q^n, the number of candidate secrets an outsider faces."""
        return self.q**self.n


def table_row(n: int, k: int, q: int, t: int | None = None) -> SecurityReport:
    """Assemble the report for one (n, k, q) row.

    q must be the size of a ring make_ring accepts, q = p**e <= 2**31 - 1.
    t defaults to k - 1, the strongest unauthorized coalition.  The
    heuristic flag is set when q is a proper prime power (e > 1), the
    case where the field-style counting is only an estimate.
    """
    if not 1 <= k <= n:
        raise BadParameters(f"need 1 <= k <= n, got k={k}, n={n}")
    ring = ring_of_size(q)
    if t is None:
        t = k - 1
    return SecurityReport(
        n=n,
        k=k,
        t=t,
        q=q,
        extension_count=extension_count(k, t, q),
        guess_probability=guess_probability(k, t, q),
        information_rate=information_rate(n),
        coalition_count=extension_count(k, 0, q),
        ring_heuristic_flag=ring.e > 1,
    )


def _approx(value: Fraction) -> str:
    """Decimal approximation to 6 significant digits, any magnitude."""
    with localcontext() as ctx:
        ctx.prec = 6
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _digits(value: int) -> str:
    """Full decimal expansion of an integer of any size.

    Routed through Decimal because int-to-str conversion is capped at a
    few thousand digits by default and the exact counts here can be far
    longer."""
    return str(Decimal(value))


def _rational(value: Fraction) -> str:
    return f"{_digits(value.numerator)}/{_digits(value.denominator)} (~{_approx(value)})"


def render_text(report: SecurityReport) -> str:
    """Human-readable rendering of a report."""
    lines = [
        f"parameters: n={report.n} k={report.k} q={report.q} t={report.t}",
        f"codewords available (q^k): {_digits(report.codeword_count)}",
        f"candidate secrets (q^n): {_digits(report.secret_space)}",
        f"minimal authorized coalitions: {_rational(report.coalition_count)}",
        f"extensions of a {report.t}-coalition: {_rational(report.extension_count)}",
        f"guess probability for a {report.t}-coalition: "
        f"{_rational(report.guess_probability)}",
        f"information rate: {_rational(report.information_rate)}",
    ]
    if report.ring_heuristic_flag:
        lines.append(
            "caveat: q is a proper prime power, so the counting figures "
            "are field-style heuristics, not exact counts over this ring"
        )
    lines.append(
        "caveat: only n-k of the distributed y values enter any one "
        "reconstruction; leakage through the unused ones is not quantified"
    )
    return "\n".join(lines)


def report_to_dict(report: SecurityReport) -> dict:
    """Machine-readable rendering; rationals become num/den strings and
    the two integer counts decimal strings."""

    def frac(value: Fraction) -> dict:
        return {
            "rational": f"{_digits(value.numerator)}/{_digits(value.denominator)}",
            "approx": _approx(value),
        }

    return {
        "n": report.n,
        "k": report.k,
        "t": report.t,
        "q": report.q,
        "codeword_count": _digits(report.codeword_count),
        "secret_space": _digits(report.secret_space),
        "coalition_count": frac(report.coalition_count),
        "extension_count": frac(report.extension_count),
        "guess_probability": frac(report.guess_probability),
        "information_rate": frac(report.information_rate),
        "ring_heuristic_flag": report.ring_heuristic_flag,
    }


def render_json(report: SecurityReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)
