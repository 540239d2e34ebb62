import numpy as np
import pytest

from onlineusm.harness import RESULT_HEADER
from onlineusm.submodular import (
    DirectedGraph,
    normalize,
    random_digraph,
)

from references import oracle_from_table


@pytest.fixture
def single_edge_oracle():
    """Normalized cut of the one-edge digraph 1 -> 2: f({1}) = 1, rest 0."""
    return normalize(DirectedGraph(2, ((1, 2, 1.0),)))


@pytest.fixture
def constant_oracle():
    def make(n, c=0.5):
        return oracle_from_table(np.full(1 << n, c))

    return make


@pytest.fixture
def cut_corpus():
    """Seeded random cut instances across small n, as (n, oracle) pairs."""

    def make(count=30, n_range=(3, 10), density=0.5, seed=1234):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            n = int(rng.integers(n_range[0], n_range[1] + 1))
            out.append((n, normalize(random_digraph(n, density, (0.0, 1.0), rng))))
        return out

    return make


def grow_only_oracle(n):
    """Supermodular f(S) = (|S| / n)^2: marginals grow with the set."""
    table = np.array([(bin(m).count("1") / n) ** 2 for m in range(1 << n)])
    return oracle_from_table(table)


def naive_first_violation(table, n, tol=1e-9):
    """Reference triple scan: S ascending, T subset of S ascending, i ascending."""
    for s in range(1 << n):
        for t in range(s + 1):
            if t & s != t:
                continue
            for i in range(n):
                bit = 1 << i
                if s & bit:
                    continue
                if table[s | bit] - table[s] > table[t | bit] - table[t] + tol:
                    return (s, t, i + 1)
    return None


#: the result columns of integer type; the rest are float64
INT_COLUMNS = ("trial", "t", "queries")


def columns_of(rows):
    """Result columns of tuple rows: int64 for INT_COLUMNS, float64 for the rest."""
    cells = list(zip(*rows)) if rows else [()] * len(RESULT_HEADER)
    return {name: np.array(c, dtype=np.int64 if name in INT_COLUMNS else np.float64)
            for name, c in zip(RESULT_HEADER, cells)}
