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
yes.  Each also plays as a batch of copies that hold their
yes-probabilities and step in place (see :class:`SubroutineBatch`).
The quadratic potentials attached to the Balancer's state make its
per-step progress checkable in closed form (:func:`step_invariant_deltas`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Protocol

import numpy as np

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


def _outside_triangle(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Where ``_in_triangle`` is false, point by point (nan included)."""
    return ~((_LO <= alpha) & (alpha <= _HI) & (_LO <= beta) & (beta <= _HI) & (alpha + beta >= _SUM_LO))


def _point_error(a: float, b: float) -> InvalidPointError:
    """What :meth:`Balancer.update` raises for the point (a, b)."""
    return InvalidPointError(f"({a}, {b}) outside triangle; is the function submodular?")


UP = BalancePoint(1.0, 1.0)
RIGHT = BalancePoint(1.0, -1.0)
LEFT = BalancePoint(-1.0, 1.0)


def decompose(pt: tuple[float, float]) -> tuple[float, float, float]:
    """Unique affine weights ``(c_up, c_right, c_left)`` of ``pt`` over up/right/left.

    c_up = (alpha+beta)/2, c_right = (1-beta)/2, c_left = (1-alpha)/2.
    Float drift can push a weight slightly negative; those are clamped
    to zero and the triple renormalized.  Points outside the triangle by
    more than ``TRIANGLE_TOL`` are rejected.
    """
    alpha, beta = pt
    if not _in_triangle(alpha, beta):
        raise InvalidPointError(f"({alpha}, {beta}) outside triangle by more than {TRIANGLE_TOL}")
    c_up = 0.5 * (alpha + beta)
    c_right = 0.5 * (1.0 - beta)
    c_left = 0.5 * (1.0 - alpha)
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
    through ``update``.  A point is any pair that unpacks as
    ``alpha, beta``: the online round feeds plain tuples, and the
    balance game feeds its adversary's :class:`BalancePoint` objects.

    ``point_terms(alpha, beta)`` computes ahead what ``update`` derives
    from each point, stacked on a new first axis, and marks the points
    ``update`` rejects (None for none).  ``batch(shape)`` returns copies
    of the subroutine in its current state, one per entry of an array of
    ``shape``, which decide from their held p and step in place as
    ``update`` would, bit for bit, checking no point
    (:class:`SubroutineBatch`).
    """

    def decide(self, coin: float) -> bool: ...

    def update(self, pt: tuple[float, float]) -> None: ...

    def point_terms(self, alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]: ...

    def batch(self, shape: tuple[int, ...]) -> "SubroutineBatch": ...


class SubroutineBatch:
    """Copies of one subroutine stepped together, one per entry of an
    array of ``shape``.

    Bound once, for all rounds, to the copies' state, their held
    yes-probability ``p``, a scratch array and ``gathered``: the buffer
    of shape (terms, *shape) in which the caller leaves each copy's point
    terms (those of ``point_terms``) before ``update``, which reads them
    through ``views``, one contiguous ``gathered[j]`` per term, taken
    here.  ``update`` steps every copy in place and refreshes ``p``, so
    no round allocates state.
    """

    def __init__(self, shape: tuple[int, ...], terms: int):
        self.p = np.empty(shape)
        self.scratch = np.empty(shape)
        self.gathered = np.empty((terms, *shape))
        self.views = tuple(self.gathered)

    def decide(self, coins: np.ndarray) -> np.ndarray:
        """Every copy's action as a new bool array: coin < p."""
        return coins < self.p

    def update(self) -> None:
        """Step every copy from ``gathered``: a constant policy has no state."""


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

    def update(self, pt: tuple[float, float]) -> None:
        a, b = pt
        # _in_triangle spelled out: one call fewer per element per round
        if not (_LO <= a <= _HI and _LO <= b <= _HI and a + b >= _SUM_LO):
            raise _point_error(a, b)
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

    def batch(self, shape: tuple[int, ...]) -> "BalancerBatch":
        return BalancerBatch(self, shape)

    def point_terms(self, alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """c_up, c_right and c_left of each point, and the points outside
        the triangle by more than ``TRIANGLE_TOL``; as in Python floats,
        inf - inf is a silent nan."""
        with np.errstate(invalid="ignore"):
            outside = _outside_triangle(alpha, beta)
            terms = np.stack((0.5 * (alpha + beta), 0.5 * (1.0 - beta), 0.5 * (1.0 - alpha)))
        return terms, outside if outside.any() else None


class BalancerBatch(SubroutineBatch):
    """Balancers stepped together; besides x and p each copy holds
    1 - 2p, the weight of its c_up term.  The constants 0, 1, 2 and
    sqrt(T) are bound as arrays of the batch's shape, so no step
    converts a Python float."""

    def __init__(self, sub: Balancer, shape: tuple[int, ...]):
        super().__init__(shape, 3)
        self.sqrt_horizon = np.full(shape, sub.sqrt_horizon)
        self.zero, self.one, self.two = (np.full(shape, c) for c in (0.0, 1.0, 2.0))
        self.x = np.full(shape, sub.x)
        self.q = np.empty(shape)
        self._follow_x()

    def _follow_x(self) -> None:
        """p = x / sqrt(T) and q = 1 - 2p, as the scalar computes them."""
        np.divide(self.x, self.sqrt_horizon, out=self.p)
        np.multiply(self.p, self.two, out=self.q)
        np.subtract(self.one, self.q, out=self.q)

    def update(self) -> None:
        """x = ((x + (1 - 2p) c_up) + c_right) - c_left, then the cap, per copy."""
        c_up, c_right, c_left = self.views
        x = self.x
        np.multiply(self.q, c_up, out=self.scratch)
        x += self.scratch
        x += c_right
        x -= c_left
        np.maximum(x, self.zero, out=x)
        np.minimum(x, self.sqrt_horizon, out=x)
        self._follow_x()


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

    def update(self, pt: tuple[float, float]) -> None:
        a, b = pt
        wy = self.w_yes * math.exp(self.eta * 0.5 * (a + 1.0))
        wn = self.w_no * math.exp(self.eta * 0.5 * (b + 1.0))
        top = wy if wy >= wn else wn
        self.w_yes = wy / top
        self.w_no = wn / top

    def batch(self, shape: tuple[int, ...]) -> "TwoExpertsBatch":
        return TwoExpertsBatch(self, shape)

    def point_terms(self, alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, None]:
        """Each point's two weight factors, through ``math.exp`` one value
        at a time: ``np.exp`` differs from it in the last bit on a few
        percent of arguments."""
        z = self.eta * 0.5 * (np.stack((alpha, beta)) + 1.0)
        return np.fromiter(map(math.exp, z.ravel().tolist()), float, z.size).reshape(z.shape), None


class TwoExpertsBatch(SubroutineBatch):
    """Two-experts learners stepped together."""

    def __init__(self, sub: TwoExperts, shape: tuple[int, ...]):
        super().__init__(shape, 2)
        self.w_yes = np.full(shape, sub.w_yes)
        self.w_no = np.full(shape, sub.w_no)
        self._follow_weights()

    def _follow_weights(self) -> None:
        """p = w_yes / (w_yes + w_no), as the scalar computes it."""
        np.add(self.w_yes, self.w_no, out=self.scratch)
        np.divide(self.w_yes, self.scratch, out=self.p)

    def update(self) -> None:
        e_yes, e_no = self.views
        wy, wn = self.w_yes, self.w_no
        wy *= e_yes
        wn *= e_no
        # the scalar's comparison, which picks wn when either is nan
        top = np.where(wy >= wn, wy, wn)
        wy /= top
        wn /= top
        self._follow_weights()


class ConstantPolicy:
    """Fixed yes-probability; ignores feedback.  Baseline subroutine."""

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"probability must be in [0, 1], got {p}")
        self.p = p

    def decide(self, coin: float) -> bool:
        return coin < self.p

    def update(self, pt: tuple[float, float]) -> None:
        pass

    def point_terms(self, alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, None]:
        return np.empty((0, *np.shape(alpha))), None

    def batch(self, shape: tuple[int, ...]) -> SubroutineBatch:
        batch = SubroutineBatch(shape, 0)
        batch.p[...] = self.p
        return batch


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


def step_invariant_deltas(p: float, pt: tuple[float, float], horizon: int) -> tuple[float, float, float]:
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
    alpha, beta = pt
    d_r = p * 0.5 * alpha + (1.0 - p) * 0.5 * beta
    d_cyes = (1.0 - p) * alpha
    d_cno = p * beta
    d_alg = d_r + _phi_alg(x2, s) - _phi_alg(x, s)
    d_yes = d_cyes + _phi_yes(x2, s) - _phi_yes(x, s)
    d_no = d_cno + _phi_no(x2, s) - _phi_no(x, s)
    return d_alg, d_yes, d_no
