"""Integer matrix invariants attached to edge shifts.

Matrices are tuples of tuples of Python ints, so all arithmetic is
exact.  One Smith elimination gives the normal form, the Bowen-Franks
data and the determinant; irreducibility and single orbits come from the
Tarjan search of `graphs`.  Every normalization choice here is
deterministic: same input, same output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import InvalidInput, PreconditionError
from .graphs import _strongly_connected

Matrix = tuple[tuple[int, ...], ...]


def as_matrix(rows: Sequence[Sequence[int]], square: bool = False) -> Matrix:
    # Hot paths build tuples from lists, whose length is known.  A tuple
    # grown from a generator is resized rather than taken from CPython's
    # per-size tuple free lists, yet joins them when freed, so they fill
    # up to 2,000 tuples of each size and hold that memory.
    out = tuple([tuple(r) for r in rows])
    width = len(out[0]) if out else 0
    for r in out:
        if len(r) != width:
            raise InvalidInput("ragged matrix")
        for v in r:
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidInput(f"matrix entries must be integers, got {v!r}")
    if square and len(out) != width:
        raise InvalidInput("matrix must be square")
    return out


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise InvalidInput("matrix shapes do not compose")
    cols = list(zip(*b)) if b else []
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def determinant(a: Matrix) -> int:
    """Exact integer determinant from one Smith elimination: U @ A @ V == D
    gives det A = det U * det V * (d1 * ... * dn), and `_smith` returns
    det U * det V, which is +1 or -1."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise InvalidInput("determinant needs a square matrix")
    m = [list(r) for r in as_matrix(a)]
    det = _smith(m)
    for i in range(n):
        det *= m[i][i]
    return det


class SmithDecomposition(NamedTuple):
    """U @ A @ V == D with U, V unimodular and D = diag(d1 | d2 | ...)."""

    U: Matrix
    D: Matrix
    V: Matrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D[i][i] for i in range(min(len(self.D), len(self.D[0]) if self.D else 0)))


def _smith(m: list[list[int]], u: list[list[int]] | None = None, v: list[list[int]] | None = None) -> int:
    """Bring m to Smith normal form in place; return det(U) * det(V).

    Row operations are applied to u and column operations to v when they
    are given, so U @ A @ V == D for the u and v passed in as identities;
    the pivot rule is the one `smith_normal_form` states.  Row and column
    additions keep both determinants; each swap and the negation of a
    negative pivot row flips one of them, so the result is +1 or -1.
    Rows above the working submatrix are zero in its columns and rows
    inside it are zero left of it, so the operations on m skip them.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    sign = 1

    def swap_rows(i: int, j: int) -> None:
        m[i], m[j] = m[j], m[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for k in range(i, rows):  # i is the pivot column; rows above are zero there
            r = m[k]
            r[i], r[j] = r[j], r[i]
        for r in v or ():
            r[i], r[j] = r[j], r[i]

    for t in range(min(rows, cols)):
        best = 0
        pi = pj = t
        for i in range(t, rows):
            row = m[i]
            for j in range(t, cols):
                x = row[j]
                if x and (not best or abs(x) < best):
                    best, pi, pj = abs(x), i, j
        if not best:
            break
        if pi != t:
            swap_rows(t, pi)
            sign = -sign
        if pj != t:
            swap_cols(t, pj)
            sign = -sign
        while True:
            # Clear column t, restarting whenever a smaller remainder shows up.
            mt = m[t]
            p = mt[t]
            restart = False
            for i in range(t + 1, rows):
                mi = m[i]
                if mi[t]:
                    q = mi[t] // p
                    for j in range(t, cols):
                        mi[j] -= q * mt[j]
                    if u is not None:
                        ui, ut = u[i], u[t]
                        for j in range(rows):
                            ui[j] -= q * ut[j]
                    if mi[t]:
                        swap_rows(t, i)
                        sign = -sign
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols):
                if mt[j]:
                    q = mt[j] // p
                    for k in range(t, rows):
                        r = m[k]
                        r[j] -= q * r[t]
                    for r in v or ():
                        r[j] -= q * r[t]
                    if mt[j]:
                        swap_cols(t, j)
                        sign = -sign
                        restart = True
                        break
            if restart:
                continue
            # Pivot must divide the rest of the submatrix; pull a bad row up.
            offender = None
            for i in range(t + 1, rows):
                mi = m[i]
                for j in range(t + 1, cols):
                    if mi[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            mi = m[offender]
            for j in range(t, cols):
                mt[j] += mi[j]
            if u is not None:
                ui, ut = u[offender], u[t]
                for j in range(rows):
                    ut[j] += ui[j]
        if m[t][t] < 0:
            m[t][t] = -m[t][t]
            if u is not None:
                u[t] = [-x for x in u[t]]
            sign = -sign
    return sign


def smith_normal_form(a: Matrix) -> SmithDecomposition:
    """Smith normal form over the integers with recorded transforms.

    Pivot choice is the least |entry| in the working submatrix with
    row-major ties, so the decomposition is reproducible.
    """
    m = [list(r) for r in as_matrix(a)]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    _smith(m, u, v)
    return SmithDecomposition(
        tuple([tuple(r) for r in u]),
        tuple([tuple(r) for r in m]),
        tuple([tuple(r) for r in v]),
    )


@dataclass(frozen=True)
class SignedBFGroup:
    """Sign of det(I - A) together with the nontrivial divisors of I - A.

    Divisors equal to 1 are dropped (they add nothing to the group);
    zeros are kept, one per free summand.  Two groups are the same
    exactly when these tuples match.
    """

    sign: int
    divisors: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise InvalidInput("sign must be -1, 0, or 1")


def bowen_franks(a: Sequence[Sequence[int]]) -> SignedBFGroup:
    """Signed Bowen-Franks data of an adjacency matrix.

    One Smith elimination of I - A, without its transforms, gives both
    parts.  U (I - A) V = D means det(I - A) = det U * det V * (d1 * ...
    * dn): det U and det V are each +1 or -1 because U and V are
    unimodular, and the elimination returns their product; every d is
    nonnegative.  So the sign is 0 when some d is 0 and that product
    otherwise.
    """
    return _bowen_franks(as_matrix(a, square=True))


def _bowen_franks(mat: Matrix) -> SignedBFGroup:
    m = [[(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(mat)]
    sign = _smith(m)
    diag = [m[i][i] for i in range(len(m))]
    return SignedBFGroup(0 if 0 in diag else sign, tuple([d for d in diag if d != 1]))


def is_nonnegative(a: Matrix) -> bool:
    return all(v >= 0 for r in a for v in r)


def _check_adjacency(a: Sequence[Sequence[int]]) -> Matrix:
    mat = as_matrix(a, square=True)
    if not is_nonnegative(mat):
        raise InvalidInput("adjacency entries must be nonnegative")
    return mat


def is_irreducible_matrix(a: Sequence[Sequence[int]]) -> bool:
    """Every index reaches every index through positive powers.

    Only the support is read (which entries are nonzero, not how large
    they are), so the work is bounded by the matrix size, not its entries.
    """
    return _irreducible(_check_adjacency(a))


def _irreducible(mat: Matrix) -> bool:
    # The index rows of a checked matrix, without a second validation.
    return _strongly_connected([[(j, x) for j, x in enumerate(row) if x] for row in mat])


def is_single_orbit(a: Sequence[Sequence[int]]) -> bool:
    """Permutation matrix whose permutation is one full cycle."""
    return _single_orbit(_check_adjacency(a))


def _single_orbit(mat: Matrix) -> bool:
    # Entries are nonnegative integers, so a row summing to 1 is a unit
    # vector; a strongly connected graph with one out-edge per vertex is
    # a single cycle.
    return all(sum(row) == 1 for row in mat) and _irreducible(mat)


def franks_decide(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> bool:
    """Flow equivalence of two irreducible edge shifts by invariant match.

    Only meaningful for irreducible matrices that are not single
    orbits; anything else is rejected rather than misclassified.
    """
    mats = []
    for name, m in (("first", a), ("second", b)):
        mat = _check_adjacency(m)
        if not _irreducible(mat):
            raise PreconditionError(f"{name} matrix is not irreducible")
        if _single_orbit(mat):
            raise PreconditionError(f"{name} matrix presents a single periodic orbit")
        mats.append(mat)
    return _bowen_franks(mats[0]) == _bowen_franks(mats[1])


def verify_elementary_equivalence(
    a: Sequence[Sequence[int]],
    b: Sequence[Sequence[int]],
    r: Sequence[Sequence[int]],
    s: Sequence[Sequence[int]],
) -> bool:
    """Check A = R S and B = S R with nonnegative integer R, S."""
    ma = _check_adjacency(a)
    mb = _check_adjacency(b)
    mr = as_matrix(r)
    ms = as_matrix(s)
    if not (is_nonnegative(mr) and is_nonnegative(ms)):
        return False
    na, nb = len(ma), len(mb)
    if len(mr) != na or (mr and len(mr[0]) != nb):
        raise InvalidInput("R must be shaped len(A) x len(B)")
    if len(ms) != nb or (ms and len(ms[0]) != na):
        raise InvalidInput("S must be shaped len(B) x len(A)")
    return mat_mul(mr, ms) == ma and mat_mul(ms, mr) == mb


def expansion_move(a: Sequence[Sequence[int]], k: int, l: int) -> Matrix:
    """Insert a fresh state splitting one k -> l transition in two.

    The new state sits at index 0; old index i moves to i + 1.  The
    entry (k, l) must be positive, it loses one unit to the new path.
    Both det(I - A) and the Bowen-Franks data are unchanged.
    """
    mat = _check_adjacency(a)
    n = len(mat)
    if not (0 <= k < n and 0 <= l < n):
        raise InvalidInput(f"state indices ({k}, {l}) out of range for size {n}")
    if mat[k][l] < 1:
        raise PreconditionError(f"entry ({k}, {l}) must be positive to expand")
    out = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        for j in range(n):
            out[i + 1][j + 1] = mat[i][j]
    out[0][l + 1] = 1
    out[k + 1][0] = 1
    out[k + 1][l + 1] -= 1
    return tuple(tuple(row) for row in out)
