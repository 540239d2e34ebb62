"""The balance subproblem and its binary-action subroutines.

In each round a subroutine commits to yes or no, then an adversary
reveals a point (alpha, beta) from the triangle with vertices
up (+1, +1), right (+1, -1), left (-1, +1); equivalently |alpha| <= 1,
|beta| <= 1, alpha + beta >= 0.  Choosing yes pays the algorithm
alpha / 2 and adds beta to the adversary's "no" pile; choosing no pays
beta / 2 and adds alpha to the "yes" pile.  The 1-regret target is
max(C_yes, C_no) - R_alg.

Two subroutines are provided: :class:`Balancer`, which paces a scalar
x in [0, sqrt(T)] and says yes with probability x / sqrt(T), and
:class:`TwoExperts`, a two-action multiplicative-weights learner; each
one's ``decide(coin)`` returns its action as a plain ``bool``, True for
yes.  The quadratic potentials attached to the Balancer's state make its
per-step progress checkable in closed form (:func:`step_invariant_deltas`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Protocol

from .errors import DomainError, InvalidPointError


class BalancePoint(NamedTuple):
    """Adversary move (alpha, beta); valid points satisfy
    -1 <= alpha, beta <= 1 and alpha + beta >= 0 (up to float drift).

    An immutable tuple, so ``a, b = pt`` unpacks it.  Construction does
    not validate so that callers can represent and test out-of-triangle
    data; consuming operations enforce membership.
    """

    alpha: float
    beta: float


#: float drift a point may show past each triangle edge (the sum edge
#: gets twice this, one share per coordinate)
TRIANGLE_TOL = 1e-6

# the triangle's bounds with their tolerance, computed once: every
# Balancer update tests one point against them
_LO = -1.0 - TRIANGLE_TOL
_HI = 1.0 + TRIANGLE_TOL
_SUM_LO = -2.0 * TRIANGLE_TOL


def _in_triangle(a: float, b: float) -> bool:
    return _LO <= a <= _HI and _LO <= b <= _HI and a + b >= _SUM_LO


UP = BalancePoint(1.0, 1.0)
RIGHT = BalancePoint(1.0, -1.0)
LEFT = BalancePoint(-1.0, 1.0)


def decompose(pt: BalancePoint) -> tuple[float, float, float]:
    """Unique affine weights ``(c_up, c_right, c_left)`` of ``pt`` over up/right/left.

    c_up = (alpha+beta)/2, c_right = (1-beta)/2, c_left = (1-alpha)/2.
    Float drift can push a weight slightly negative; those are clamped
    to zero and the triple renormalized.  Points outside the triangle by
    more than ``TRIANGLE_TOL`` are rejected.
    """
    if not _in_triangle(pt.alpha, pt.beta):
        raise InvalidPointError(f"({pt.alpha}, {pt.beta}) outside triangle by more than {TRIANGLE_TOL}")
    c_up = 0.5 * (pt.alpha + pt.beta)
    c_right = 0.5 * (1.0 - pt.beta)
    c_left = 0.5 * (1.0 - pt.alpha)
    if c_up < 0.0 or c_right < 0.0 or c_left < 0.0:
        c_up = max(c_up, 0.0)
        c_right = max(c_right, 0.0)
        c_left = max(c_left, 0.0)
        total = c_up + c_right + c_left
        c_up, c_right, c_left = c_up / total, c_right / total, c_left / total
    return c_up, c_right, c_left


class BalanceSubroutine(Protocol):
    """Protocol for binary-action subroutines.

    ``decide`` returns the action as a plain ``bool``, True for yes:
    ``coin < p`` for the subroutine's current yes-probability p.  It must
    depend only on internal state and the coin (one uniform [0,1) draw
    per round, always consumed); the revealed point arrives later
    through ``update``.  A :class:`BalancePoint` is an immutable tuple
    that unpacks as ``alpha, beta``.
    """

    def decide(self, coin: float) -> bool: ...

    def update(self, pt: BalancePoint) -> None: ...


def _sqrt_horizon(horizon: int) -> float:
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    return math.sqrt(horizon)


class Balancer:
    """Pacing subroutine: keep x in [0, sqrt(T)], say yes w.p. x/sqrt(T).

    The state update x += (1 - 2p) * c_up + c_right - c_left (then cap
    into [0, sqrt(T)]) is deterministic given the revealed point; the
    coin only realizes the decision.  Update-then-cap order matters for
    the potential analysis and is preserved exactly.
    """

    def __init__(self, horizon: int):
        self.sqrt_horizon = _sqrt_horizon(horizon)
        self.horizon = horizon
        self.x = 0.5 * self.sqrt_horizon

    def decide(self, coin: float) -> bool:
        return coin < self.x / self.sqrt_horizon

    def update(self, pt: BalancePoint) -> None:
        a, b = pt
        # _in_triangle spelled out: one call fewer per element per round
        if not (_LO <= a <= _HI and _LO <= b <= _HI and a + b >= _SUM_LO):
            raise InvalidPointError(f"({a}, {b}) outside triangle; is the function submodular?")
        c_up = 0.5 * (a + b)
        c_right = 0.5 * (1.0 - b)
        c_left = 0.5 * (1.0 - a)
        p = self.x / self.sqrt_horizon
        x = self.x + (1.0 - 2.0 * p) * c_up + c_right - c_left
        if x < 0.0:
            x = 0.0
        elif x > self.sqrt_horizon:
            x = self.sqrt_horizon
        self.x = x


class TwoExperts:
    """Multiplicative weights over the two actions yes / no.

    Rewards are shifted from [-1, 1] to [0, 1] before exponentiation;
    weights are renormalized by their max each update so long runs stay
    in range without changing the yes-probability.  The rate is the
    Hedge tuning for two actions over the horizon, sqrt(8 ln 2 / T).
    """

    def __init__(self, horizon: int):
        if horizon < 1:
            raise DomainError(f"horizon must be >= 1, got {horizon}")
        self.eta = math.sqrt(8.0 * math.log(2.0) / horizon)
        self.w_yes = 1.0
        self.w_no = 1.0

    def decide(self, coin: float) -> bool:
        return coin < self.w_yes / (self.w_yes + self.w_no)

    def update(self, pt: BalancePoint) -> None:
        wy = self.w_yes * math.exp(self.eta * 0.5 * (pt.alpha + 1.0))
        wn = self.w_no * math.exp(self.eta * 0.5 * (pt.beta + 1.0))
        top = wy if wy >= wn else wn
        self.w_yes = wy / top
        self.w_no = wn / top


class ConstantPolicy:
    """Fixed yes-probability; ignores feedback.  Baseline subroutine."""

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"probability must be in [0, 1], got {p}")
        self.p = p

    def decide(self, coin: float) -> bool:
        return coin < self.p

    def update(self, pt: BalancePoint) -> None:
        pass


# --- ledger ------------------------------------------------------------

@dataclass(frozen=True)
class Ledger:
    """Accumulated reward and the adversary's two missed-opportunity piles."""

    r_alg: float = 0.0
    c_yes: float = 0.0
    c_no: float = 0.0


# --- potentials --------------------------------------------------------

def _phi_alg(x: float, s: float) -> float:
    return s / 8.0 - (2.0 * x - s) ** 2 / (8.0 * s)


def _phi_yes(x: float, s: float) -> float:
    return 0.5 * (s - x) ** 2 / s


def _phi_no(x: float, s: float) -> float:
    return 0.5 * x * x / s


def potentials(x: float, horizon: int) -> tuple[float, float, float]:
    """The three bookkeeping potentials at state x, each in [0, sqrt(T)/2].

    phi_alg peaks at x = sqrt(T)/2 and is added to the reward; phi_yes
    vanishes at x = sqrt(T) and is added to C_yes; phi_no vanishes at
    x = 0 and is added to C_no.  A horizon below 1 raises
    :class:`DomainError`.
    """
    s = _sqrt_horizon(horizon)
    if not 0.0 <= x <= s:
        raise DomainError(f"x={x} outside [0, sqrt(T)={s}]")
    return _phi_alg(x, s), _phi_yes(x, s), _phi_no(x, s)


def step_invariant_deltas(p: float, pt: BalancePoint, horizon: int) -> tuple[float, float, float]:
    """Exact expected one-step changes of the three potential-augmented sums.

    Adds the expected one-round changes of (R_alg, C_yes, C_no) when yes
    has probability p to the changes of the closed-form potentials
    between x = p*sqrt(T) and the uncapped updated state
    x + (1-2p)c_up + c_right - c_left (the quadratics extend smoothly
    past the interval ends; capping only ever helps and is covered by
    its own monotonicity check).  The pacing guarantee is
    d_alg >= max(d_yes, d_no) - 2/sqrt(T).
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p={p} outside [0, 1]")
    s = _sqrt_horizon(horizon)
    c_up, c_right, c_left = decompose(pt)
    x = p * s
    delta = (1.0 - 2.0 * p) * c_up + c_right - c_left
    x2 = x + delta
    d_r = p * 0.5 * pt.alpha + (1.0 - p) * 0.5 * pt.beta
    d_cyes = (1.0 - p) * pt.alpha
    d_cno = p * pt.beta
    d_alg = d_r + _phi_alg(x2, s) - _phi_alg(x, s)
    d_yes = d_cyes + _phi_yes(x2, s) - _phi_yes(x, s)
    d_no = d_cno + _phi_no(x2, s) - _phi_no(x, s)
    return d_alg, d_yes, d_no
