from __future__ import annotations

import json
import random
import time
from math import gcd

import pytest

from shiftflow import (
    InvalidInput,
    PreconditionError,
    SignedBFGroup,
    bowen_franks,
    cli,
    determinant,
    expansion_move,
    franks_decide,
    smith_normal_form,
    verify_elementary_equivalence,
)
from shiftflow.graphs import DirectedGraph
from shiftflow.invariants import _check_adjacency, identity, is_irreducible_matrix, is_single_orbit, mat_mul

from .oracles import (
    bowen_franks_by_determinant,
    det_by_permutations,
    determinant_by_bareiss,
    franks_decide_by_graphs,
    irreducible_by_reachability,
    is_irreducible_by_tarjan,
    minor_gcd,
    single_orbit_by_cycle_walk,
    smith_normal_form_by_closures,
)

FIB = [[1, 1], [1, 0]]


def _rand_matrix(rng: random.Random, n: int, lo: int, hi: int):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def _rand_irreducible(rng: random.Random, n: int):
    """Cycle skeleton plus noise keeps the matrix irreducible."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][(i + 1) % n] = 1
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.4:
                m[i][j] += rng.randint(0, 2)
    return m


def test_determinant_against_permutation_oracle():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = _rand_matrix(rng, n, -5, 5)
        assert determinant(m) == det_by_permutations(m)


def test_determinant_of_empty_matrix_is_one():
    assert determinant([]) == 1


def test_smith_normal_form_certificate_suite():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = _rand_matrix(rng, n, -5, 5)
        u, d, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert determinant(u) in (1, -1)
        assert determinant(v) in (1, -1)
        diag = [d[i][i] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            assert y == 0 or (x != 0 and y % x == 0) or (x == 0 and y == 0)
        # product of the first k divisors = gcd of all k x k minors
        prod = 1
        for k in range(1, n + 1):
            prod *= diag[k - 1]
            assert abs(prod) == minor_gcd(a, k), (a, diag, k)


def test_snf_divisors_nonnegative():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(1, 4)
        _, d, _ = smith_normal_form(_rand_matrix(rng, n, -5, 5))
        assert all(d[i][i] >= 0 for i in range(n))


def test_bowen_franks_of_full_shifts():
    """Full r-shift: sign -1, cyclic group of order r - 1."""
    assert bowen_franks([[2]]) == SignedBFGroup(-1, ())
    for r in range(3, 11):
        assert bowen_franks([[r]]) == SignedBFGroup(-1, (r - 1,))


def test_bowen_franks_unit_divisors_are_dropped():
    bf = bowen_franks(FIB)
    assert bf.sign == -1
    assert bf.divisors == ()
    assert bf == bowen_franks([[2]])


def test_bowen_franks_zero_determinant():
    bf = bowen_franks([[1]])
    assert bf.sign == 0
    assert bf.divisors == (0,)


def test_franks_decide_examples():
    assert franks_decide(FIB, [[2]])
    assert not franks_decide([[2]], [[3]])
    assert franks_decide([[3]], [[3]])


def test_franks_decide_rejects_reducible():
    with pytest.raises(PreconditionError):
        franks_decide([[1, 1], [0, 1]], [[2]])


def test_franks_decide_rejects_single_orbits():
    with pytest.raises(PreconditionError):
        franks_decide([[0, 1], [1, 0]], [[2]])
    with pytest.raises(PreconditionError):
        franks_decide([[2]], [[1]])


def test_is_single_orbit():
    assert is_single_orbit([[1]])
    assert is_single_orbit([[0, 1], [1, 0]])
    assert not is_single_orbit([[1, 0], [0, 1]])  # two fixed points
    assert not is_single_orbit([[2]])


def test_expansion_move_inserts_state():
    out = expansion_move([[2]], 0, 0)
    assert [list(r) for r in out] == [[0, 1], [1, 1]]
    assert bowen_franks(out) == bowen_franks([[2]])


def test_expansion_move_requires_positive_entry():
    with pytest.raises(PreconditionError):
        expansion_move([[0, 1], [1, 0]], 0, 0)


def test_bf_invariant_under_random_expansion_chains():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = _rand_irreducible(rng, n)
        bf = bowen_franks(a)
        m = a
        for _ in range(rng.randint(1, 4)):
            pos = [(i, j) for i in range(len(m)) for j in range(len(m)) if m[i][j] > 0]
            k, l = rng.choice(pos)
            m = expansion_move(m, k, l)
        assert bowen_franks(m) == bf


def test_bf_invariant_under_verified_elementary_equivalence():
    """A = RS, B = SR forces matching invariants."""
    rng = random.Random(31)
    checked = 0
    while checked < 25:
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        r = [[rng.randint(0, 2) for _ in range(n)] for _ in range(m)]
        s = [[rng.randint(0, 2) for _ in range(m)] for _ in range(n)]
        a = mat_mul(r, s)
        b = mat_mul(s, r)
        assert verify_elementary_equivalence(a, b, r, s)
        assert bowen_franks(a).divisors == bowen_franks(b).divisors
        assert bowen_franks(a).sign == bowen_franks(b).sign
        checked += 1


def test_verify_elementary_equivalence_rejects_mismatch():
    assert not verify_elementary_equivalence([[2]], [[3]], [[1]], [[2]])


def test_sylvester_determinant_identity():
    """det(I - RS) = det(I - SR) for rectangular nonnegative R, S."""
    rng = random.Random(37)
    for _ in range(50):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        r = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
        s = [[rng.randint(0, 3) for _ in range(m)] for _ in range(n)]
        rs = mat_mul(r, s)
        sr = mat_mul(s, r)
        im_rs = [[identity(m)[i][j] - rs[i][j] for j in range(m)] for i in range(m)]
        in_sr = [[identity(n)[i][j] - sr[i][j] for j in range(n)] for i in range(n)]
        assert determinant(im_rs) == determinant(in_sr)


def test_franks_is_equivalence_relation_on_sample():
    rng = random.Random(41)
    mats = []
    while len(mats) < 8:
        m = _rand_irreducible(rng, rng.randint(1, 3))
        if not is_single_orbit(m):
            mats.append(m)
    rel = {}
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            rel[i, j] = franks_decide(a, b)
    for i in range(len(mats)):
        assert rel[i, i]
        for j in range(len(mats)):
            assert rel[i, j] == rel[j, i]
            for k in range(len(mats)):
                if rel[i, j] and rel[j, k]:
                    assert rel[i, k]


def test_minor_gcd_oracle_sanity():
    # hand case: diag(2, 4) has 1x1 gcd 2 and lone 2x2 minor 8
    assert minor_gcd([[2, 0], [0, 4]], 1) == 2
    assert minor_gcd([[2, 0], [0, 4]], 2) == 8
    assert gcd(0, 5) == 5


def _outcome(f, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return ("value", f(*args))
    except Exception as exc:  # any exception type is part of the behaviour compared
        return ("raised", type(exc), str(exc))


def _diff_matrix(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    kind = rng.randrange(5)
    if kind == 0:
        m = [[rng.randint(-30, 30) for _ in range(cols)] for _ in range(rows)]
    elif kind == 1:
        m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
    elif kind == 2:
        density = rng.random()
        m = [[int(rng.random() < density) for _ in range(cols)] for _ in range(rows)]
    elif kind == 3:
        m = [[rng.randint(0, 3) if rng.random() < 0.5 else 0 for _ in range(cols)] for _ in range(rows)]
    else:
        # rank at most 2, so Smith forms with zero divisors
        x = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(rows)]
        y = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(2)]
        m = [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(cols)] for i in range(rows)]
    if rows and cols and rng.random() < 0.2:
        m[rng.randrange(rows)] = [0] * cols
    if rows and cols and rng.random() < 0.2:
        j = rng.randrange(cols)
        for row in m:
            row[j] = 0
    return m


def _diff_square(rng: random.Random, n: int) -> list[list[int]]:
    """A square matrix for the Bowen-Franks and Franks entry points:
    arbitrary, nonnegative, irreducible by a cycle, or a permutation."""
    kind = rng.randrange(4)
    if kind == 0:
        return _diff_matrix(rng, n, n)
    if kind == 1:
        return [[rng.randint(0, 2) if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(n)]
    if kind == 2:
        return _rand_irreducible(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    return [[int(perm[i] == j) for j in range(n)] for i in range(n)]


def test_one_elimination_agrees_with_the_transform_keeping_oracles():
    """Smith forms, Bowen-Franks data, irreducibility and Franks verdicts
    equal those of the earlier implementation (full Smith transforms, a
    Bareiss determinant and a multigraph per matrix), exceptions
    included."""
    rng = random.Random(43)
    cases = 0
    for _ in range(2400):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        if rng.random() < 0.5:
            cols = rows
        a = _diff_matrix(rng, rows, cols)
        mat = tuple(tuple(r) for r in a) if rows else ()
        assert smith_normal_form(mat) == smith_normal_form_by_closures(mat), a
        assert smith_normal_form(a) == smith_normal_form_by_closures(a), a
        if rng.random() < 0.05 and rows > 1:
            a[rng.randrange(1, rows)].append(1)  # ragged
        for lib, ref in (
            (bowen_franks, bowen_franks_by_determinant),
            (is_irreducible_matrix, is_irreducible_by_tarjan),
        ):
            assert _outcome(lib, a) == _outcome(ref, a), (lib.__name__, a)
        cases += 1
    verdicts = set()
    for _ in range(1200):
        a = _diff_square(rng, rng.randint(0, 7))
        b = _diff_square(rng, rng.randint(0, 7)) if rng.random() < 0.6 else None
        if b is None:
            # an expansion move keeps the invariants, so some pairs are equivalent
            pos = [(i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x > 0]
            b = expansion_move(a, *rng.choice(pos)) if pos and min(map(min, a)) >= 0 else a
        if rng.random() < 0.05:
            b = [row[:-1] for row in b] or [[1, 2]]  # not square
        for m in (a, b):
            assert _outcome(bowen_franks, m) == _outcome(bowen_franks_by_determinant, m), m
            assert _outcome(is_irreducible_matrix, m) == _outcome(is_irreducible_by_tarjan, m), m
        got = _outcome(franks_decide, a, b)
        assert got == _outcome(franks_decide_by_graphs, a, b), (a, b)
        verdicts.add(got[:2] if got[0] == "value" else got[1])
        cases += 1
    assert cases >= 2000
    assert {("value", True), ("value", False), PreconditionError} <= verdicts


def _cycles(rng: random.Random, n: int, count: int) -> list[list[int]]:
    """Permutation matrix of size n whose permutation has `count` cycles."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), count - 1)) if n else []
    m = [[0] * n for _ in range(n)]
    for block in (order[i:j] for i, j in zip([0] + cuts, cuts + [n])):
        for k, i in enumerate(block):
            m[i][block[(k + 1) % len(block)]] = 1
    return m


def _orbit_square(rng: random.Random, n: int) -> list[list[int]]:
    """Permutations with one to four cycles, some with one entry raised,
    0/1/2 entries, cycles with noise and integer entries of either sign;
    some with zero rows, a few ragged."""
    kind = rng.randrange(6)
    if kind <= 1:
        m = _cycles(rng, n, 1 if n < 2 or rng.random() < 0.65 else rng.randint(2, min(4, n)))
        if kind == 1 and n:
            m[rng.randrange(n)][rng.randrange(n)] += 1
    elif kind == 2:
        density = rng.random()
        m = [[rng.randint(1, 2) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    elif kind == 3:
        m = _rand_irreducible(rng, n)
    elif kind == 4:
        m = _rand_matrix(rng, n, -3, 3)
    else:
        m = [[rng.randint(-30, 30) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
    if n and rng.random() < 0.1:
        m[rng.randrange(n)] = [0] * n
    if n > 1 and rng.random() < 0.02:
        m[rng.randrange(n)].pop()
    return m


def test_one_elimination_and_one_tarjan_agree_with_the_earlier_routines():
    """`determinant`, `is_irreducible_matrix`, `is_single_orbit` and
    `franks_decide` give the results and exceptions of the Bareiss
    elimination, the dense reachability search and the cycle walk they
    replaced."""
    rng = random.Random(47)
    single_orbits = 0
    verdicts = set()
    previous: list[list[int]] = [[2]]
    for case in range(5200):
        a = _orbit_square(rng, case % 10)
        assert _outcome(determinant, a) == _outcome(determinant_by_bareiss, a), a
        orbit = _outcome(is_single_orbit, a)
        assert orbit == _outcome(lambda m: single_orbit_by_cycle_walk(_check_adjacency(m)), a), a
        assert _outcome(is_irreducible_matrix, a) == _outcome(
            lambda m: irreducible_by_reachability(_check_adjacency(m)), a
        ), a
        single_orbits += orbit == ("value", True)
        pos = [(i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x > 0]
        if rng.random() < 0.3 and pos and _outcome(_check_adjacency, a)[0] == "value":
            b = expansion_move(a, *rng.choice(pos))
        else:
            b = previous
        got = _outcome(franks_decide, a, b)
        assert got == _outcome(franks_decide_by_graphs, a, b), (a, b)
        verdicts.add(got[:2] if got[0] == "value" else got[1])
        previous = a
    assert single_orbits >= 500
    assert {("value", True), ("value", False), PreconditionError, InvalidInput} <= verdicts


@pytest.mark.parametrize(
    "a, message",
    [
        ([[1, 2], [3, 4, 5]], "ragged matrix"),
        ([[1, 2], [3]], "ragged matrix"),
        ([[1.5]], "matrix entries must be integers, got 1.5"),
        ([[True]], "matrix entries must be integers, got True"),
    ],
)
def test_smith_normal_form_and_determinant_reject_malformed_matrices(a, message):
    with pytest.raises(InvalidInput) as exc:
        smith_normal_form(a)
    assert str(exc.value) == message
    with pytest.raises(InvalidInput) as exc:
        determinant(a)
    assert str(exc.value) == ("determinant needs a square matrix" if message == "ragged matrix" else message)


BIG = 10**12


@pytest.mark.parametrize(
    "call",
    [
        lambda: franks_decide([[BIG, 1], [1, 0]], [[BIG, 1], [1, 0]]),
        lambda: is_irreducible_matrix([[BIG, 1], [1, 0]]),
        lambda: bowen_franks([[BIG, 1], [1, 0]]),
    ],
    ids=["franks_decide", "is_irreducible_matrix", "bowen_franks"],
)
def test_large_entries_answer_within_a_second(call):
    start = time.perf_counter()
    assert call()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["fe", "decide-sft", f"[[{BIG},1],[1,0]]", f"[[1,{BIG}],[1,0]]"], {"flow_equivalent": True}),
        (["invariant", "bf", f"[[{BIG},1],[1,0]]"], None),
    ],
    ids=["fe decide-sft", "invariant bf"],
)
def test_cli_on_large_entries_answers_within_a_second(capsys, argv, expected):
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    if expected is not None:
        assert out == expected
    assert elapsed < 1.0


def test_franks_decide_builds_no_graph(monkeypatch):
    """Irreducibility is read from the matrix support, never from a
    multigraph with one edge per unit of each entry."""
    built = []
    post_init = DirectedGraph.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(DirectedGraph, "__post_init__", counting)
    a = [[3, 1, 0], [0, 0, 2], [1, 1, 0]]
    assert franks_decide(a, expansion_move(a, 0, 0)) is True
    assert not built
    assert franks_decide_by_graphs(a, a) is True
    assert built  # the counter does see graphs being built
