"""The phase-orbit table every lift reads its points from, checked on
integers alone against the closed forms of the lift counts.

A state is an index triple into the sources' points laid end to end, and
sigma(i, j, k) = (j, k, next(i)).  `_phase_orbits(sizes, period)` lists
each orbit of minimal period `period` among the states that use every
source, as the first indices a_0 .. a_{P-1} of its states: state t is
(a_t, a_{t+1}, a_{t+2}), indices mod P.
"""
import itertools
import math

import pytest

from quadshift.cycles import _phase_orbits


def _layout(sizes):
    # owner of each index, and the next point of its cycle
    owner, nxt = [], []
    for s, n in enumerate(sizes):
        nxt.extend(len(owner) + (k + 1) % n for k in range(n))
        owner.extend([s] * n)
    return owner, nxt


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _states_using_all(sizes):
    owner, _ = _layout(sizes)
    return {t for t in itertools.product(range(len(owner)), repeat=3)
            if len({owner[i] for i in t}) == len(sizes)}


@pytest.mark.parametrize("sizes", [(1,), (2,), (3,), (4,), (6,), (1, 1),
                                   (1, 2), (2, 1), (2, 3), (4, 6),
                                   (1, 1, 1), (1, 2, 4), (3, 3, 2)])
def test_tables_of_every_period_partition_the_states(sizes):
    _, nxt = _layout(sizes)
    covered = []
    for d in _divisors(3 * math.lcm(*sizes)):
        for a in _phase_orbits(sizes, d):
            assert len(a) == d
            # sigma sends state t to state t + 1, and state d - 1 to state 0
            assert all(a[(t + 3) % d] == nxt[a[t]] for t in range(d))
            covered.extend((a[t], a[(t + 1) % d], a[(t + 2) % d])
                           for t in range(d))
    assert len(covered) == len(set(covered))
    assert set(covered) == _states_using_all(sizes)


@pytest.mark.parametrize("n", range(1, 13))
def test_one_cycle_has_one_homogeneous_orbit_and_ceil_n2_over_3_in_all(n):
    assert len(_phase_orbits((n,), n)) == (1 if n % 3 else 0)
    tables = {d: _phase_orbits((n,), d) for d in _divisors(3 * n)}
    assert sum(map(len, tables.values())) == -(-n * n // 3)
    assert sum(d * len(t) for d, t in tables.items()) == n ** 3


@pytest.mark.parametrize("n, m", itertools.product(range(1, 7), repeat=2))
def test_a_pair_gives_n_plus_m_times_nm_over_lcm_orbits(n, m):
    s = math.lcm(n, m)
    orbits = _phase_orbits((n, m), 3 * s)
    assert len(orbits) == (n + m) * n * m // s
    # those orbits cover all 3nm(n+m) mixed states, so there are no others
    assert 3 * s * len(orbits) == 3 * n * m * (n + m)


@pytest.mark.parametrize("n, m, p", itertools.product(range(1, 5), repeat=3))
def test_a_triple_gives_2nmp_over_lcm_orbits(n, m, p):
    s = math.lcm(n, m, p)
    orbits = _phase_orbits((n, m, p), 3 * s)
    assert len(orbits) == 2 * n * m * p // s
    assert 3 * s * len(orbits) == 6 * n * m * p
