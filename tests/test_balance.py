import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlineusm.adversaries import ObliviousBalanceAdversary
from onlineusm.balance import (
    LEFT,
    RIGHT,
    TRIANGLE_TOL,
    UP,
    BalancePoint,
    Balancer,
    ConstantPolicy,
    Ledger,
    TwoExperts,
    _in_triangle,
    decompose,
    potentials,
    step_invariant_deltas,
)
from onlineusm.errors import DomainError, InvalidPointError
from onlineusm.harness import ExperimentConfig, _balance_trial, run_balance_game, run_experiment

from references import balance_alpha_regret, expected_ledger_deltas, reconstruct


def random_triangle_points(count, rng):
    w = rng.dirichlet((1.0, 1.0, 1.0), size=count)
    alpha = w[:, 0] + w[:, 1] - w[:, 2]
    beta = w[:, 0] - w[:, 1] + w[:, 2]
    return alpha, beta


# --- decomposition -------------------------------------------------------

def test_decompose_vertices():
    assert decompose(UP) == pytest.approx((1.0, 0.0, 0.0))
    assert decompose(RIGHT) == pytest.approx((0.0, 1.0, 0.0))
    assert decompose(LEFT) == pytest.approx((0.0, 0.0, 1.0))


def test_decompose_center_matches_linear_solve():
    # independent route: solve the 3x3 system {sum=1, alpha match, beta match}
    for alpha, beta in [(0.0, 0.0), (0.3, 0.2), (-0.4, 0.9), (0.5, -0.5)]:
        a = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])
        want = np.linalg.solve(a, np.array([1.0, alpha, beta]))
        c_up, c_right, c_left = decompose(BalancePoint(alpha, beta))
        assert np.allclose([c_up, c_right, c_left], want, atol=1e-12)
    assert decompose(BalancePoint(0.0, 0.0)) == pytest.approx((0.0, 0.5, 0.5))


def test_decompose_reconstruct_identity_bulk():
    rng = np.random.default_rng(6)
    alpha, beta = random_triangle_points(100_000, rng)
    worst = 0.0
    for a, b in zip(alpha, beta):
        c_up, c_right, c_left = decompose(BalancePoint(a, b))
        ra, rb = reconstruct(c_up, c_right, c_left)
        worst = max(worst, abs(ra - a), abs(rb - b))
        assert c_up >= 0 and c_right >= 0 and c_left >= 0
        assert abs(c_up + c_right + c_left - 1.0) <= 1e-9
    assert worst <= 1e-9


def test_decompose_clamps_boundary_drift():
    c_up, c_right, c_left = decompose(BalancePoint(1e-13, -2e-13))  # alpha+beta = -1e-13
    assert c_up == 0.0
    assert abs(c_up + c_right + c_left - 1.0) <= 1e-12
    ra, rb = reconstruct(c_up, c_right, c_left)
    assert abs(ra - 1e-13) <= 1e-9 and abs(rb + 2e-13) <= 1e-9


def test_decompose_rejects_far_outside():
    for bad in [(-1.0, -1.0), (1.2, 0.0), (0.0, -1.5), (-0.6, 0.5)]:
        with pytest.raises(InvalidPointError):
            decompose(BalancePoint(*bad))
    # within the 1e-6 gate is accepted
    decompose(BalancePoint(1.0 + 5e-7, -1.0))


# Base points on the triangle's edges (alpha = 1, beta = 1, alpha + beta = 0),
# on the box sides that touch it only at a corner, and at the corners; each
# coordinate then moves by up to 10 * TRIANGLE_TOL, so draws land on both
# sides of the gate.  Half-tolerance steps put draws exactly on the gate.
_on_boundary = st.one_of(
    st.sampled_from([(UP.alpha, UP.beta), (RIGHT.alpha, RIGHT.beta), (LEFT.alpha, LEFT.beta)]),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
    st.tuples(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 1.0])),
    st.floats(-1.0, 1.0).map(lambda a: (a, -a)),
)
_offset = st.one_of(
    st.integers(-20, 20).map(lambda k: k * TRIANGLE_TOL / 2),
    st.floats(-10 * TRIANGLE_TOL, 10 * TRIANGLE_TOL),
)


def _accepts(op) -> bool:
    try:
        op()
    except InvalidPointError:
        return False
    return True


@settings(max_examples=400, deadline=None)
@given(_on_boundary, _offset, _offset)
def test_decompose_and_balancer_update_share_the_triangle_gate(base, da, db):
    a, b = base[0] + da, base[1] + db
    pt = BalancePoint(a, b)
    by_decompose = _accepts(lambda: decompose(pt))
    assert _accepts(lambda: Balancer(100).update(pt)) == by_decompose
    inside = (
        abs(a) <= 1.0 + TRIANGLE_TOL and abs(b) <= 1.0 + TRIANGLE_TOL and a + b >= -2 * TRIANGLE_TOL
    )
    assert by_decompose == inside
    if by_decompose:
        c_up, c_right, c_left = decompose(pt)
        assert min(c_up, c_right, c_left) >= 0.0
        assert c_up + c_right + c_left == pytest.approx(1.0, abs=1e-12)


_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, -1.0, 0.5, -0.5, 1.0 + TRIANGLE_TOL]


@pytest.mark.parametrize("a", _SPECIAL)
@pytest.mark.parametrize("b", _SPECIAL)
def test_nan_inf_and_negative_zero_meet_one_gate(a, b):
    """``_in_triangle``, ``decompose`` and the chain ``Balancer.update`` spells
    inline accept the same points: no nan or infinite coordinate, and -0.0
    as 0.0."""
    pt = BalancePoint(a, b)
    gate = _in_triangle(a, b)
    assert _accepts(lambda: decompose(pt)) == gate
    balancer = Balancer(100)
    assert _accepts(lambda: balancer.update(pt)) == gate
    finite = math.isfinite(a) and math.isfinite(b)
    assert gate == (finite and abs(a) <= 1.0 + TRIANGLE_TOL and abs(b) <= 1.0 + TRIANGLE_TOL
                    and a + b >= -2 * TRIANGLE_TOL)
    if gate:
        # a zero of either sign weighs and moves the state as 0.0 does
        plain = BalancePoint(a + 0.0, b + 0.0)
        assert decompose(pt) == decompose(plain)
        reference = Balancer(100)
        reference.update(plain)
        assert balancer.x == reference.x
    else:
        assert balancer.x == 5.0  # a rejected point leaves the state as it was


# --- balancer ------------------------------------------------------------

def test_balancer_midpoint_up_keeps_state():
    b = Balancer(100)  # sqrt(T) = 10, x starts at 5
    p = b.x / b.sqrt_horizon
    d = b.decide(0.49)
    b.update(UP)
    assert p == 0.5 and d is True
    assert b.x == 5.0


def test_balancer_cap_at_lower_boundary():
    b = Balancer(100)
    b.x = 0.0
    p = b.x / b.sqrt_horizon
    d = b.decide(0.0)
    b.update(LEFT)
    assert p == 0.0 and d is False
    assert b.x == 0.0


def test_balancer_cap_at_upper_boundary():
    b = Balancer(100)
    b.x = 10.0
    p = b.x / b.sqrt_horizon
    d = b.decide(0.999)
    b.update(RIGHT)
    assert p == 1.0 and d is True
    assert b.x == 10.0


def test_balancer_stays_in_range_on_random_sequences():
    rng = np.random.default_rng(2)
    for T in (7, 50, 400):
        b = Balancer(T)
        s = math.sqrt(T)
        alpha, beta = random_triangle_points(T, rng)
        for a, be in zip(alpha, beta):
            b.decide(rng.random())
            b.update(BalancePoint(a, be))
            assert 0.0 <= b.x <= s


def test_balancer_update_rejects_far_outside_points():
    b = Balancer(100)
    with pytest.raises(InvalidPointError):
        b.update(BalancePoint(-0.8, 0.2))


def test_balancer_rejects_bad_horizon():
    with pytest.raises(DomainError):
        Balancer(0)


# --- two experts ---------------------------------------------------------

def test_mw_fresh_state_is_uniform():
    m = TwoExperts(1000)
    assert m.w_yes / (m.w_yes + m.w_no) == 0.5
    assert m.decide(0.49) is True
    assert m.decide(0.51) is False


def test_mw_ratio_after_right_point():
    m = TwoExperts(1)
    m.eta = 0.1
    m.decide(0.3)
    m.update(RIGHT)
    # yes reward 1, no reward 0 after the [-1,1] -> [0,1] shift
    assert m.w_yes / m.w_no == pytest.approx(math.exp(0.1), rel=1e-12)


def test_mw_equal_rewards_keep_ratio():
    m = TwoExperts(1)
    m.eta = 0.25
    m.decide(0.1)
    m.update(RIGHT)
    ratio = m.w_yes / m.w_no
    for c in (0.7, -0.2, 0.0):
        m.decide(0.5)
        m.update(BalancePoint(c, c))
        assert m.w_yes / m.w_no == pytest.approx(ratio, rel=1e-12)


def test_mw_weights_stay_bounded():
    m = TwoExperts(1)
    m.eta = 0.5
    rng = np.random.default_rng(0)
    for _ in range(5000):
        m.decide(rng.random())
        m.update(RIGHT)
    assert 0.0 < m.w_yes <= 1.0
    assert 0.0 < m.w_no <= 1.0


def test_default_learning_rate():
    assert TwoExperts(10_000).eta == math.sqrt(8 * math.log(2) / 10_000)
    with pytest.raises(DomainError, match="horizon must be >= 1"):
        TwoExperts(0)


# --- ledger --------------------------------------------------------------

def ledger_after(p, points, rounds, seed=0):
    """Ledger of a ``rounds``-round game of ConstantPolicy(p) against ``points``."""
    adversary = ObliviousBalanceAdversary(points)
    return run_balance_game(ConstantPolicy(p), adversary, rounds, np.random.default_rng(seed)).ledger


def test_ledger_update_yes_on_right():
    led = ledger_after(1.0, [RIGHT], 1)
    assert (led.r_alg, led.c_yes, led.c_no) == (0.5, 0.0, -1.0)


def test_ledger_update_no_on_right():
    led = ledger_after(0.0, [RIGHT], 1)
    assert (led.r_alg, led.c_yes, led.c_no) == (-0.5, 1.0, 0.0)


def test_ledger_update_zero_point():
    points = [RIGHT, LEFT, UP, BalancePoint(0.0, 0.0)]
    for p in (0.0, 1.0):
        before = ledger_after(p, points, 3)
        assert before != Ledger()
        assert ledger_after(p, points, 4) == before


def test_ledger_bounds_after_t_rounds():
    rng = np.random.default_rng(9)
    t = 500
    alpha, beta = random_triangle_points(t, rng)
    points = [BalancePoint(a, b) for a, b in zip(alpha, beta)]
    led = ledger_after(0.5, points, t, seed=9)
    assert abs(led.r_alg) <= t / 2 + 1e-9
    assert abs(led.c_yes) <= t + 1e-9
    assert abs(led.c_no) <= t + 1e-9


def test_balance_alpha_regret_values():
    # the experiment's final a * max(C_yes, C_no) - R_alg on ledgers known in
    # closed form over 4 rounds: yes on U earns 1/2 and adds 1 to the no
    # pile, no on R earns -1/2 and adds 1 to the yes pile, no on L earns
    # 1/2 and takes 1 from the yes pile (so the empty no pile is the max)
    cases = [
        ("always-yes", "pattern:U", 1.0, Ledger(2.0, 0.0, 4.0), 2.0),
        ("always-yes", "pattern:U", 0.5, Ledger(2.0, 0.0, 4.0), 0.0),
        ("always-no", "pattern:R", 0.25, Ledger(-2.0, 4.0, 0.0), 3.0),
        ("always-no", "pattern:L", 0.7, Ledger(2.0, -4.0, 0.0), -2.0),
    ]
    for subroutine, adversary, a, ledger, regret in cases:
        cfg = ExperimentConfig(game="balance", rounds=4, subroutine=subroutine,
                               adversary=adversary, alpha=a).validated()
        assert _balance_trial(cfg, 0).ledger == ledger
        assert run_experiment(cfg)[1]["final_alpha_regret"] == [regret]


# --- potentials ----------------------------------------------------------

def test_potentials_endpoints():
    T = 10_000  # sqrt(T) = 100
    assert potentials(0.0, T) == pytest.approx((0.0, 50.0, 0.0))
    assert potentials(50.0, T)[0] == pytest.approx(100.0 / 8)
    assert potentials(100.0, T) == pytest.approx((0.0, 0.0, 50.0))


def test_potentials_range_and_domain():
    T = 400
    s = math.sqrt(T)
    for x in np.linspace(0, s, 101):
        for phi in potentials(float(x), T):
            assert -1e-12 <= phi <= s / 2 + 1e-12
    with pytest.raises(DomainError):
        potentials(-0.01, T)
    with pytest.raises(DomainError):
        potentials(s + 0.01, T)


@pytest.mark.parametrize("horizon", [0, -4])
def test_potentials_reject_a_horizon_below_one(horizon):
    with pytest.raises(DomainError, match="horizon must be >= 1"):
        potentials(0.0, horizon)
    with pytest.raises(DomainError, match="horizon must be >= 1"):
        step_invariant_deltas(0.5, UP, horizon)


def test_expected_ledger_deltas_extremal():
    for p in np.linspace(0, 1, 11):
        p = float(p)
        assert expected_ledger_deltas(p, UP) == pytest.approx((0.5, 1 - p, p))
        assert expected_ledger_deltas(p, RIGHT) == pytest.approx((0.5 * (2 * p - 1), 1 - p, -p))
        assert expected_ledger_deltas(p, LEFT) == pytest.approx((0.5 * (1 - 2 * p), -(1 - p), p))


def test_step_invariant_deltas_add_the_ledger_deltas_to_the_potential_changes():
    T = 400
    s = math.sqrt(T)
    checked = 0
    for p in np.linspace(0, 1, 21):
        p = float(p)
        for pt in (UP, RIGHT, LEFT, BalancePoint(0.3, 0.4), BalancePoint(-0.5, 0.7)):
            c_up, c_right, c_left = decompose(pt)
            x = p * s
            x2 = x + ((1.0 - 2.0 * p) * c_up + c_right - c_left)
            if not 0.0 <= x2 <= s:
                continue  # potentials() covers [0, sqrt(T)] only
            want = tuple(
                d + after - before
                for d, after, before in zip(expected_ledger_deltas(p, pt), potentials(x2, T), potentials(x, T))
            )
            assert step_invariant_deltas(p, pt, T) == want
            checked += 1
    assert checked >= 90


def test_step_invariant_up_at_half():
    d_alg, d_yes, d_no = step_invariant_deltas(0.5, UP, 10_000)
    assert d_alg >= 0.5 - 1e-15
    assert d_yes == pytest.approx(0.5, abs=1e-12)
    assert d_no == pytest.approx(0.5, abs=1e-12)


def test_step_invariant_matches_reduced_algebra():
    # independent route: expanding the potential differences gives
    #   d_alg = c_up (1 + (1-2p)^2) / 2 - delta^2 / (2 sqrt(T))
    #   d_yes = d_no = 2 p (1-p) c_up + delta^2 / (2 sqrt(T))
    rng = np.random.default_rng(17)
    T = 10_000
    s = math.sqrt(T)
    alpha, beta = random_triangle_points(300, rng)
    for a, b in zip(alpha, beta):
        p = float(rng.random())
        pt = BalancePoint(a, b)
        c_up, c_right, c_left = decompose(pt)
        delta = (1 - 2 * p) * c_up + c_right - c_left
        want_alg = c_up * (1 + (1 - 2 * p) ** 2) / 2 - delta**2 / (2 * s)
        want_cost = 2 * p * (1 - p) * c_up + delta**2 / (2 * s)
        d_alg, d_yes, d_no = step_invariant_deltas(p, pt, T)
        assert d_alg == pytest.approx(want_alg, abs=1e-11)
        assert d_yes == pytest.approx(want_cost, abs=1e-11)
        assert d_no == pytest.approx(want_cost, abs=1e-11)


def test_step_invariant_grid_small():
    T = 400
    bound = 2.0 / math.sqrt(T)
    for p in np.linspace(0, 1, 21):
        for pt in (UP, RIGHT, LEFT):
            d_alg, d_yes, d_no = step_invariant_deltas(float(p), pt, T)
            assert d_alg >= max(d_yes, d_no) - bound


def test_capping_monotonicity():
    # compare against raw quadratics evaluated outside [0, sqrt(T)]
    T = 100
    s = 10.0

    def raw(x):
        return (
            s / 8 - (2 * x - s) ** 2 / (8 * s),
            0.5 * (s - x) ** 2 / s,
            0.5 * x * x / s,
        )

    rng = np.random.default_rng(12)
    for _ in range(300):
        x = float(rng.uniform(-1.5, s + 1.5))
        capped = min(max(x, 0.0), s)
        got = potentials(capped, T)
        ref = raw(x)
        assert got[0] >= ref[0] - 1e-12
        assert got[1] <= ref[1] + 1e-12
        assert got[2] <= ref[2] + 1e-12


# --- constant policies ---------------------------------------------------

def test_constant_policies():
    assert ConstantPolicy(1.0).decide(0.999) is True
    assert ConstantPolicy(0.0).decide(0.0) is False
    u = ConstantPolicy(0.5)
    assert u.decide(0.49) is True and u.decide(0.51) is False


def yes_probability(sub):
    """The yes-probability a subroutine's state gives its next ``decide``."""
    if isinstance(sub, Balancer):
        return sub.x / sub.sqrt_horizon
    if isinstance(sub, TwoExperts):
        return sub.w_yes / (sub.w_yes + sub.w_no)
    return sub.p


@st.composite
def subroutines_in_any_state(draw):
    """A Balancer, TwoExperts or ConstantPolicy (0, 1 and interior p among
    them) in a reachable state: fresh, or after up to 30 triangle points."""
    kind = draw(st.sampled_from(["balancer", "mw", "constant"]))
    if kind == "constant":
        return ConstantPolicy(draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)))
    horizon = draw(st.integers(1, 400))
    sub = Balancer(horizon) if kind == "balancer" else TwoExperts(horizon)
    inside = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(lambda ab: ab[0] + ab[1] >= 0.0)
    for a, b in draw(st.lists(st.sampled_from([UP, RIGHT, LEFT]) | inside, max_size=30)):
        sub.update(BalancePoint(a, b))
    return sub


@settings(max_examples=300, deadline=None)
@given(subroutines_in_any_state(), st.data())
def test_decide_returns_coin_below_p_as_a_bool(sub, data):
    p = yes_probability(sub)
    # the boundary coins: p itself, its two neighbours and 0.0, then any coin
    for coin in (p, math.nextafter(p, -math.inf), math.nextafter(p, math.inf), 0.0,
                 data.draw(st.floats(0.0, 1.0, exclude_max=True))):
        d = sub.decide(coin)
        assert type(d) is bool
        assert d == (coin < p)
        assert yes_probability(sub) == p  # deciding leaves the state as it was


# --- batches: the array step against a loop of scalar steps ----------------

def scalars_and_batch(kind, horizon, p, copies):
    """``copies`` fresh subroutines of one kind and one batch of as many."""
    def make():
        if kind == "balancer":
            return Balancer(horizon)
        return TwoExperts(horizon) if kind == "mw" else ConstantPolicy(p)

    return [make() for _ in range(copies)], make().batch((copies,))


def state_bits(subs, batch):
    """Each state field of the scalar subroutines and of the batch, and each
    copy's yes-probability (the batch's held ``p``), as int64 bit patterns
    per copy: (scalars', batch's)."""
    names = {Balancer: ("x",), TwoExperts: ("w_yes", "w_no"), ConstantPolicy: ("p",)}[type(subs[0])]
    scalar = [np.array([getattr(sub, name) for sub in subs]).view(np.int64).tolist() for name in names]
    scalar.append(np.array([yes_probability(sub) for sub in subs]).view(np.int64).tolist())
    batched = [np.broadcast_to(getattr(batch, name), len(subs)).view(np.int64).tolist() for name in (*names, "p")]
    return scalar, batched


# points on the triangle's edges within the gate's tolerance, the extremal
# points and points inside
_edge_points = st.tuples(_on_boundary, _offset, _offset).map(
    lambda d: (d[0][0] + d[1], d[0][1] + d[2])).filter(lambda ab: _in_triangle(*ab))
_batch_points = (
    st.sampled_from([tuple(UP), tuple(RIGHT), tuple(LEFT)])
    | _edge_points
    | st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(lambda ab: ab[0] + ab[1] >= 0.0)
)


def assert_decides_alike(subs, batch, coins):
    want = [sub.decide(c) for sub, c in zip(subs, coins)]
    got = batch.decide(np.array(coins))
    assert got.dtype == bool and got.tolist() == want


def assert_decides_alike_at_p(subs, batch):
    """Each copy's coin at its yes-probability p, and at the double below p."""
    p = [yes_probability(sub) for sub in subs]
    assert_decides_alike(subs, batch, p)
    assert_decides_alike(subs, batch, [math.nextafter(v, -math.inf) for v in p])


def step_batch(subs, batch, points):
    """One round's points, one per copy: the scalars' ``point_terms`` put in
    the batch's gather buffer, then the batch's ``update``."""
    terms, rejected = subs[0].point_terms(np.array([a for a, _ in points]), np.array([b for _, b in points]))
    assert rejected is None
    batch.gathered[...] = terms.T
    batch.update()


def play_both(subs, batch, rounds):
    """Each round's (points, coins) fed to the scalars one by one and to the
    batch at once; asserts the decisions, at the drawn coins and at each
    copy's p and the double below it, before every round and after the
    last, and every state bit after each round, and returns the scalars'
    states per round."""
    seen = []
    for points, coins in rounds:
        assert_decides_alike_at_p(subs, batch)
        assert_decides_alike(subs, batch, coins)
        for sub, pt in zip(subs, points):
            sub.update(BalancePoint(*pt))
        step_batch(subs, batch, points)
        scalar, batched = state_bits(subs, batch)
        assert scalar == batched
        seen.append([vars(sub).copy() for sub in subs])
    assert_decides_alike_at_p(subs, batch)
    return seen


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["balancer", "mw", "constant"]), horizon=st.integers(1, 400),
       p=st.sampled_from([0.0, 0.5, 1.0]), copies=st.integers(1, 4), data=st.data())
def test_batch_step_is_a_loop_of_scalar_steps(kind, horizon, p, copies, data):
    subs, batch = scalars_and_batch(kind, horizon, p, copies)
    coin = st.floats(0.0, 1.0, exclude_max=True)
    rounds = data.draw(st.lists(st.tuples(st.lists(_batch_points, min_size=copies, max_size=copies),
                                          st.lists(coin, min_size=copies, max_size=copies)),
                                min_size=1, max_size=40))
    play_both(subs, batch, rounds)


def arrays_of(batch):
    """Every array a batch holds, its per-term views included."""
    return [a for v in vars(batch).values() for a in (v if isinstance(v, tuple) else (v,))
            if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("kind", ["balancer", "mw", "constant"])
def test_batches_own_their_buffers_and_decisions(kind):
    subs, batch = scalars_and_batch(kind, 100, 0.5, 3)
    _, other = scalars_and_batch(kind, 100, 0.5, 3)
    assert arrays_of(batch) and len(arrays_of(batch)) == len(arrays_of(other))
    assert not any(np.shares_memory(a, b) for a in arrays_of(batch) for b in arrays_of(other))
    coins = np.array([0.2, 0.5, 0.8])
    first = batch.decide(coins)
    kept = first.copy()
    points = [tuple(RIGHT), tuple(LEFT), tuple(UP)]
    for sub, pt in zip(subs, points):
        sub.update(BalancePoint(*pt))
    step_batch(subs, batch, points)
    second = batch.decide(coins)
    assert first.tolist() == kept.tolist()
    assert not any(np.shares_memory(first, a) for a in (second, *arrays_of(batch)))
    assert second.tolist() == [sub.decide(c) for sub, c in zip(subs, coins.tolist())]


@pytest.mark.parametrize("horizon", [1, 2, 5, 100])
def test_batch_step_caps_and_renormalizes_as_the_scalar_does(horizon):
    # copy 0 sees right points, copy 1 left points, copy 2 alternates: the
    # Balancer's x reaches both caps, and the mw weights renormalize
    rounds = [((tuple(RIGHT), tuple(LEFT), tuple(RIGHT if t % 2 else LEFT)), (0.3, 0.6, 0.9))
              for t in range(3 * horizon)]
    subs, batch = scalars_and_batch("balancer", horizon, None, 3)
    states = [sub["x"] for row in play_both(subs, batch, rounds) for sub in row]
    assert 0.0 in states and math.sqrt(horizon) in states
    subs, batch = scalars_and_batch("mw", horizon, None, 3)
    states = play_both(subs, batch, rounds)
    assert all(max(sub["w_yes"], sub["w_no"]) == 1.0 for row in states for sub in row)
    assert min(sub["w_no"] for sub in states[-1]) < 1.0 and min(sub["w_yes"] for sub in states[-1]) < 1.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_on_boundary, _offset, _offset), min_size=1, max_size=8))
def test_point_terms_mark_the_points_update_rejects(draws):
    a = [base[0] + da for base, da, _ in draws]
    b = [base[1] + db for base, _, db in draws]
    want = [not _accepts(lambda: Balancer(100).update(BalancePoint(x, y))) for x, y in zip(a, b)]
    _, rejected = Balancer(100).point_terms(np.array(a), np.array(b))
    assert (rejected.tolist() if rejected is not None else [False] * len(a)) == want
    assert rejected is None or any(want)


def test_point_terms_gate_nan_inf_and_negative_zero_as_update_does():
    pairs = [(a, b) for a in _SPECIAL for b in _SPECIAL]
    alpha, beta = np.array(pairs).T
    _, rejected = Balancer(100).point_terms(alpha, beta)
    assert rejected.tolist() == [not _in_triangle(a, b) for a, b in pairs]
    # the other subroutines check no point
    for sub in (TwoExperts(100), ConstantPolicy(0.5)):
        assert sub.point_terms(alpha, beta)[1] is None


# --- empirical two-experts reduction (extremal oblivious adversaries) ----

@pytest.mark.parametrize("pattern", ["U", "RL", "URL"])
def test_mw_half_regret_and_balancer_one_regret_sublinear(pattern):
    from onlineusm.harness import build_balance_adversary, run_balance_game

    for T in (1000, 10_000):
        bound = 5 * math.sqrt(T)
        for seed in range(20):
            rng = np.random.default_rng((seed, T, 1))
            res_mw = run_balance_game(
                TwoExperts(T), build_balance_adversary(f"pattern:{pattern}"), T, rng
            )
            assert balance_alpha_regret(res_mw.ledger, 0.5) <= bound
            rng = np.random.default_rng((seed, T, 2))
            res_bal = run_balance_game(
                Balancer(T), build_balance_adversary(f"pattern:{pattern}"), T, rng
            )
            assert balance_alpha_regret(res_bal.ledger, 1.0) <= bound
