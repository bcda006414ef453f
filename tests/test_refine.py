"""Partitions, similarity, LP refinement decisions, and decomposition."""

import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import (
    ht,
    hyper,
    load,
    p_init,
    rand_hyper,
    rand_partition,
    rand_refinement_matrix,
    refine_hyper,
    run_module,
    threebox_init,
)
from oracles import is_simple
from hyperflow import refine
from hyperflow.errors import NotRefinementMatrix
from hyperflow.lp import solve_feasibility
from hyperflow.matrix import RatMatrix
from hyperflow.measures import ft
from hyperflow.probcore import FiniteDist, vnum, vsym
from hyperflow.refine import (
    NotRefined,
    Partition,
    RefinementWitness,
    bv_partition,
    check_refinement,
    decompose_refinement,
    extract_partition,
    reduce_partition,
    refines,
    similar,
)
from hyperflow.semantics import HyperDist, SplitState

HVALS = [vnum(k) for k in range(4)]


def frac(*pairs):
    return FiniteDist([(ht(k), w) for k, w in pairs])


# -- extraction -----------------------------------------------------------------


def test_extract_p2_at_one():
    pi = extract_partition(run_module(load("P2"), p_init()), (vnum(1),))
    assert set(pi.fractions) == {
        frac((1, F(1, 6))),
        frac((1, F(1, 6)), (3, F(1, 6))),
        frac((3, F(1, 6))),
    }
    assert reduce_partition(pi) == pi


def test_extract_p4_at_one():
    pi = extract_partition(run_module(load("P4"), p_init()), (vnum(1),))
    assert set(pi.fractions) == {
        frac((1, F(1, 4)), (3, F(1, 12))),
        frac((1, F(1, 12)), (3, F(1, 4))),
    }


def test_extract_absent_v_is_empty():
    pi = extract_partition(run_module(load("P2"), p_init()), (vnum(2),))
    assert len(pi) == 0


# -- reduction and similarity ------------------------------------------------------


def test_reduce_paper_example():
    pi = Partition.of(
        [
            FiniteDist([]),
            frac((0, F(1, 3))),
            frac((1, F(1, 6)), (2, F(1, 6))),
            frac((1, F(1, 6)), (2, F(1, 6))),
        ]
    )
    assert reduce_partition(pi) == Partition.of(
        [frac((0, F(1, 3))), frac((1, F(1, 3)), (2, F(1, 3)))]
    )


def test_reduce_idempotent_on_reduced():
    pi = extract_partition(run_module(load("P2"), p_init()), (vnum(1),))
    assert reduce_partition(pi) == Partition.of(pi.fractions)


def test_similar_fractions_merge():
    # both normalise to {1@1/3, 2@2/3}, so reduction adds them up
    pi = Partition.of([frac((1, F(1, 6)), (2, F(1, 3))), frac((1, F(1, 8)), (2, F(1, 4)))])
    reduced = reduce_partition(pi)
    assert len(reduced) == 1
    assert reduced.fractions[0] == frac((1, F(7, 24)), (2, F(7, 12)))


def test_similar_paper_pair():
    left = Partition.of(
        [
            FiniteDist([]),
            frac((0, F(1, 3))),
            frac((1, F(1, 6)), (2, F(1, 6))),
            frac((1, F(1, 6)), (2, F(1, 6))),
        ]
    )
    right = Partition.of(
        [
            frac((0, F(1, 3))),
            frac((1, F(1, 9)), (2, F(1, 9))),
            frac((1, F(2, 9)), (2, F(2, 9))),
        ]
    )
    assert similar(left, right)
    assert similar(left, left)


def test_different_total_weight_not_similar():
    assert not similar(
        Partition.of([frac((0, F(1, 2)))]), Partition.of([frac((0, F(1, 3)))])
    )


# -- Bayes vulnerability of partitions ------------------------------------------------


def test_bv_partition_empty():
    assert bv_partition(Partition.of([])) == 0


def test_bv_partition_known_values():
    # the footnote values recomputed via the published second channel live
    # in the acceptance suite; here a quick hand case
    pi = Partition.of([frac((1, F(1, 4)), (3, F(1, 12))), frac((1, F(1, 12)), (3, F(1, 4)))])
    assert bv_partition(pi) == F(1, 2)


# -- refinement ------------------------------------------------------------------------


def test_threebox_S_refined_by_I1_with_summing_witness():
    s = run_module(load("threebox_S"), threebox_init())
    i1 = run_module(load("threebox_I1"), threebox_init())
    result = check_refinement(s, i1)
    assert isinstance(result, RefinementWitness)
    (r,) = result.per_v.values()
    assert r.nrows == 1 and r.ncols == 2 and r.rows == [[F(1), F(1)]]


def test_p2_refined_by_p4():
    assert refines(run_module(load("P2"), p_init()), run_module(load("P4"), p_init()))


def test_published_witness_matrix_is_a_solution_at_one():
    # splitting P2's middle fraction in two equal halves reproduces P4
    pi_s = extract_partition(run_module(load("P2"), p_init()), (vnum(1),))
    pi_i = extract_partition(run_module(load("P4"), p_init()), (vnum(1),))
    h_cols = sorted(set(pi_s.h_support()) | set(pi_i.h_support()), key=lambda x: str(x))
    mat_s = pi_s.matrix(h_cols)
    mat_i = pi_i.matrix(h_cols)
    # align the published rows/columns with the canonical fraction order:
    # find SOME arrangement of the paper's entries {1, 1/2, 0} that works
    half = F(1, 2)
    candidates = [
        RatMatrix([[1, half, 0], [0, half, 1]]),
        RatMatrix([[0, half, 1], [1, half, 0]]),
    ]
    assert any(
        r.is_column_stochastic() and (r @ mat_s) == mat_i for r in candidates
    )


def test_p4_not_refined_by_p2_at_one():
    result = check_refinement(run_module(load("P4"), p_init()), run_module(load("P2"), p_init()))
    assert isinstance(result, NotRefined)
    assert result.v == (vnum(1),)
    assert result.certificate is not None


def test_reflexive_identity_witness():
    h = run_module(load("P2"), p_init())
    result = check_refinement(h, h)
    assert isinstance(result, RefinementWitness)
    for v, r in result.per_v.items():
        assert r == RatMatrix.identity(r.nrows)


def test_functional_mismatch_short_circuits():
    s = run_module(load("threebox_S"), threebox_init())
    other = hyper([(((vsym("bot"),), [(ht(0), F(1))]), F(1))])
    result = check_refinement(s, other)
    assert isinstance(result, NotRefined) and result.functional_mismatch


def test_functional_equality_is_read_off_the_partitions(monkeypatch):
    # equal fraction sums at every visible value, all checked before any
    # LP runs, decide exactly what ft(spec) == ft(impl) decides
    lp_calls = []

    def counted(lp):
        lp_calls.append(lp)
        return solve_feasibility(lp)

    monkeypatch.setattr(refine, "solve_feasibility", counted)
    rng = random.Random(41)
    vs = [vnum(k) for k in range(3)]

    def shift(h):
        return ht((int(h[0].payload) + 1) % len(HVALS))

    def rotated(hyper_, at):
        """The split-states at visible value `at` with their hidden values shifted."""
        return HyperDist([(SplitState(s.v, s.delta.map(shift)) if s.v == at else s, w) for s, w in hyper_])

    def moved(hyper_, at):
        """The split-states at visible value `at` moved to a visible value of their own."""
        return HyperDist([(SplitState((vnum(9),), s.delta) if s.v == at else s, w) for s, w in hyper_])

    seen = {"equal": 0, "one v": 0, "one side": 0}
    for _ in range(80):
        spec = rand_hyper(rng, vs, HVALS)
        at = rng.choice(spec.visible_values())
        same = refine_hyper(rng, spec)
        for impl in (same, rand_hyper(rng, vs, HVALS), rotated(same, at), moved(same, at)):
            mismatch = ft(spec) != ft(impl)
            lp_calls.clear()
            result = check_refinement(spec, impl)
            assert getattr(result, "functional_mismatch", False) == mismatch
            if not mismatch:
                seen["equal"] += 1
                continue
            assert result.v is None and not lp_calls
            both = set(spec.visible_values()) | set(impl.visible_values())
            unequal = [v for v in both if extract_partition(spec, v).total() != extract_partition(impl, v).total()]
            seen["one v"] += len(unequal) == 1
            seen["one side"] += set(spec.visible_values()) != set(impl.visible_values())
    assert min(seen.values()) >= 20, seen


def test_witnesses_compose_transitively():
    # R31 := R32 x R21 witnesses the composite refinement directly
    rng = random.Random(23)
    for _ in range(20):
        h1 = rand_hyper(rng, [vnum(0)], HVALS)
        h2 = refine_hyper(rng, h1)
        h3 = refine_hyper(rng, h2)
        w21 = check_refinement(h1, h2)
        w32 = check_refinement(h2, h3)
        assert isinstance(w21, RefinementWitness) and isinstance(w32, RefinementWitness)
        for v, r21 in w21.per_v.items():
            r31 = w32.per_v[v] @ r21
            r31.check_refinement_matrix()
            cols = sorted(
                set(extract_partition(h1, v).h_support())
                | set(extract_partition(h3, v).h_support()),
                key=lambda x: str(x),
            )
            assert r31 @ extract_partition(h1, v).matrix(cols) == extract_partition(
                h3, v
            ).matrix(cols)


def test_weight_preserved_under_refinement():
    rng = random.Random(19)
    for _ in range(40):
        h = rand_hyper(rng, [vnum(0), vnum(1)], HVALS)
        merged = refine_hyper(rng, h)
        result = check_refinement(h, merged)
        assert isinstance(result, RefinementWitness)
        for v in h.visible_values():
            assert extract_partition(h, v).total().weight == extract_partition(merged, v).total().weight


# -- decomposition -----------------------------------------------------------------------


def test_decompose_worked_example():
    r = RatMatrix([[F(1, 3), F(3, 4)], [F(2, 3), F(1, 4)]])
    got = decompose_refinement(r)
    assert [c for c, _ in got] == [F(1, 4), F(1, 12), F(2, 3)]
    assert got[0][1] == RatMatrix.identity(2)
    assert got[1][1] == RatMatrix([[1, 1], [0, 0]])
    assert got[2][1] == RatMatrix([[0, 1], [1, 0]])


def test_decompose_identity():
    assert decompose_refinement(RatMatrix.identity(3)) == [
        (F(1), RatMatrix.identity(3))
    ]


def test_decompose_simple_is_itself():
    m = RatMatrix([[1, 0], [0, 1], [0, 0]])
    assert decompose_refinement(m) == [(F(1), m)]


def test_decompose_rejects_non_refinement():
    with pytest.raises(NotRefinementMatrix):
        decompose_refinement(RatMatrix([[F(1, 2)], [F(1, 4)]]))


def test_decompose_reconstructs_random_matrices():
    rng = random.Random(101)
    for _ in range(100):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        r = rand_refinement_matrix(rng, rows, cols)
        parts = decompose_refinement(r)
        assert sum((c for c, _ in parts), F(0)) == 1
        assert all(c > 0 for c, _ in parts)
        assert all(is_simple(m) for _, m in parts)
        acc = RatMatrix.zero(rows, cols)
        for c, m in parts:
            acc = RatMatrix(
                [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(acc.rows, m.rows)]
            )
        assert acc == r


# -- presolved LP against the plain LP --------------------------------------------


def merge_partition(rng, pi, rows):
    """R x pi for a random column-stochastic R with the given row count."""
    r = rand_refinement_matrix(rng, rows, len(pi))
    merged = []
    for row in range(rows):
        acc = FiniteDist([])
        for col, f in enumerate(pi.fractions):
            acc = acc.add(f.scale(r[row, col]))
        if acc.weight:
            merged.append(acc)
    return Partition.of(merged)


def presolve_pairs(seed, count, hidden_vars=1):
    """Seeded (pi_s, pi_i) pairs: refining merges and their non-refining
    reverses, equal partitions, and unrelated pairs of equal weight, with
    between 2 and 12 hidden values against 2 to 6 fractions.  With two
    hidden variables, hidden value k is the pair (k mod 2, k div 2)."""
    rng = random.Random(seed)

    def points(pi):
        if hidden_vars == 1:
            return pi
        return Partition.of([f.map(lambda h: ht(h[0].payload % 2, h[0].payload // 2)) for f in pi.fractions])

    for k in range(count):
        n_h = rng.choice([2, 3, 4, 8, 12])
        fine = rand_partition(rng, rng.randint(2, 4), n_h)
        coarse = merge_partition(rng, fine, rng.randint(1, len(fine)))
        kind = k % 4
        if kind == 0:
            pair = fine, coarse
        elif kind == 1:
            pair = coarse, fine
        elif kind == 2:
            pair = fine, Partition.of(fine.fractions)
        else:
            pair = fine, rand_partition(rng, rng.randint(1, 3), n_h)
        yield tuple(map(points, pair))


def _rank(vectors):
    """Rank of a list of rational vectors, by row reduction."""
    rows = [list(v) for v in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_presolved_lp_agrees_with_the_plain_lp():
    from hyperflow.attack import separating_direction_from_certificate
    from hyperflow.lp import Feasible, _verify_certificate, solve_feasibility
    from hyperflow.refine import (
        check_partition_refinement,
        hidden_columns,
        independent_columns,
        refinement_lp,
    )

    seen = {"refined": 0, "not refined": 0, "reduced": 0, "full rank": 0, "equal": 0, "wide": 0, "two hidden": 0}
    pairs = itertools.chain(presolve_pairs(611, 160), presolve_pairs(615, 80, hidden_vars=2))
    for pi_s, pi_i in pairs:
        h_columns = hidden_columns(pi_s, pi_i)
        mat_s, mat_i = pi_s.matrix(h_columns), pi_i.matrix(h_columns)
        full = refinement_lp(mat_s, mat_i)
        plain = solve_feasibility(full)
        witness, cert = check_partition_refinement(pi_s, pi_i)
        assert (witness is not None) == isinstance(plain, Feasible)
        if pi_s == pi_i:
            seen["equal"] += 1
        elif len(independent_columns(mat_s, mat_i)) < len(h_columns):
            seen["reduced"] += 1
        else:
            seen["full rank"] += 1
        # more hidden columns than the stacked matrix has rows
        seen["wide"] += len(h_columns) > len(pi_s) + len(pi_i)
        seen["two hidden"] += len(h_columns[0]) == 2
        if witness is not None:
            seen["refined"] += 1
            assert cert is None
            assert witness.is_column_stochastic() and witness @ mat_s == mat_i
        else:
            seen["not refined"] += 1
            assert len(cert) == len(full.constraints)
            _verify_certificate(full, cert)
            assert separating_direction_from_certificate(pi_s, pi_i, cert).margin > 0
    assert min(seen.values()) >= 20, seen


def test_lp_is_solved_on_the_kept_columns_only(monkeypatch):
    import hyperflow.refine as refine_mod

    shapes = []
    real = refine_mod.solve_feasibility

    def spy(lp):
        shapes.append((lp.num_vars, len(lp.constraints)))
        return real(lp)

    monkeypatch.setattr(refine_mod, "solve_feasibility", spy)
    fine = Partition.of([frac(*[(h, F(1, 16)) for h in range(8)]), frac(*[(h, F(1, 16)) for h in range(8, 16)])])
    coarse = Partition.of([frac(*[(h, F(1, 16)) for h in range(16)])])
    # 16 hidden columns, stacked rank 2: one column-sum equation per source
    # fraction plus one product equation per target fraction and kept column
    assert refine_mod.check_partition_refinement(fine, coarse)[0] is not None
    assert shapes == [(2, 2 + 1 * 2)]
    witness, cert = refine_mod.check_partition_refinement(coarse, fine)
    assert witness is None and len(cert) == 1 + 2 * 16
    assert shapes[1] == (2, 1 + 2 * 2)
    # equal partitions take the identity without an LP
    assert refine_mod.check_partition_refinement(fine, fine)[0] == RatMatrix.identity(2)
    assert len(shapes) == 2


def test_independent_columns_span_the_stacked_matrix():
    from hyperflow.refine import independent_columns

    rng = random.Random(612)
    dropped = 0
    for _ in range(80):
        f_s, f_i = rng.randint(1, 4), rng.randint(1, 4)
        rank = rng.randint(1, f_s + f_i)
        base = [[F(rng.randint(-3, 3)) for _ in range(f_s + f_i)] for _ in range(rank)]
        cols = []
        for _ in range(rng.randint(1, 10)):
            coefs = [F(rng.randint(-2, 2)) for _ in base]
            cols.append([sum((c * b[r] for c, b in zip(coefs, base)), F(0)) for r in range(f_s + f_i)])
        mat_s = RatMatrix([[col[r] for col in cols] for r in range(f_s)])
        mat_i = RatMatrix([[col[r] for col in cols] for r in range(f_s, f_s + f_i)])
        kept = independent_columns(mat_s, mat_i)
        assert kept == sorted(set(kept))
        # the kept columns are independent and span every column
        assert _rank([cols[h] for h in kept]) == len(kept) == _rank(cols)
        dropped += len(cols) - len(kept)
        # a picker that dropped one more column would leave it outside the span
        for h in kept:
            assert _rank([cols[k] for k in kept if k != h]) < _rank(cols)
    assert dropped > 0


def _fraction_independent_columns(mat_s, mat_i):
    """The column sweep of independent_columns over Fractions, without its
    early stop at full row rank."""
    basis, kept = [], []
    for h in range(mat_s.ncols):
        col = [row[h] for row in mat_s.rows + mat_i.rows]
        for p, b in basis:
            f = col[p]
            col = [x - f * y for x, y in zip(col, b)]
        p = next((r for r, x in enumerate(col) if x), None)
        if p is not None:
            basis.append((p, [x / col[p] for x in col]))
            kept.append(h)
    return kept


def _stacked_columns(rng):
    """test_independent_columns_span_the_stacked_matrix's generator: hidden
    columns spanning a random subspace of the stacked rows."""
    f_s, f_i = rng.randint(1, 4), rng.randint(1, 4)
    rank = rng.randint(1, f_s + f_i)
    base = [[F(rng.randint(-3, 3)) for _ in range(f_s + f_i)] for _ in range(rank)]
    cols = []
    for _ in range(rng.randint(1, 10)):
        coefs = [F(rng.randint(-2, 2)) for _ in base]
        cols.append([sum((c * b[r] for c, b in zip(coefs, base)), F(0)) for r in range(f_s + f_i)])
    return f_s, f_i, cols


def test_integer_column_sweep_keeps_the_fraction_sweeps_columns():
    from hyperflow.refine import hidden_columns, independent_columns

    rng = random.Random(613)
    for _ in range(120):
        f_s, f_i, cols = _stacked_columns(rng)
        # fractional entries: scale each stacked row by its own random factor
        scale = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(f_s + f_i)]
        rows = [[s * col[r] for col in cols] for r, s in enumerate(scale)]
        mat_s, mat_i = RatMatrix(rows[:f_s]), RatMatrix(rows[f_s:])
        assert independent_columns(mat_s, mat_i) == _fraction_independent_columns(mat_s, mat_i)
    for pi_s, pi_i in presolve_pairs(614, 80):
        h_columns = hidden_columns(pi_s, pi_i)
        mat_s, mat_i = pi_s.matrix(h_columns), pi_i.matrix(h_columns)
        assert independent_columns(mat_s, mat_i) == _fraction_independent_columns(mat_s, mat_i)


def test_refinement_certificates_carry_a_separating_gain():
    from hyperflow.attack import separating_direction_from_certificate
    from hyperflow.errors import InternalError, NotSeparable
    from hyperflow.lp import _verify_certificate
    from hyperflow.refine import (
        certificate_gain,
        check_partition_refinement,
        gain_margin,
        hidden_columns,
        independent_columns,
        refinement_lp,
    )

    certificates = padded = 0
    for pi_s, pi_i in presolve_pairs(611, 160):
        cert = check_partition_refinement(pi_s, pi_i)[1]
        if cert is None:
            continue
        certificates += 1
        h_columns = hidden_columns(pi_s, pi_i)
        mat_s, mat_i = pi_s.matrix(h_columns), pi_i.matrix(h_columns)
        full = refinement_lp(mat_s, mat_i)
        f_s, f_i = mat_s.nrows, mat_i.nrows
        _verify_certificate(full, cert)
        x = certificate_gain(cert, f_s, f_i)
        assert (x.nrows, x.ncols) == (f_i, len(h_columns))
        padded += len(independent_columns(mat_s, mat_i)) < len(h_columns)
        margin = gain_margin(x, mat_s, mat_i)
        assert margin > 0
        assert separating_direction_from_certificate(pi_s, pi_i, cert).margin == margin
        # the column-sum multipliers alone never certify: y.b = sum(u) <= 0
        zeroed = cert[:f_s] + [F(0)] * (len(cert) - f_s)
        with pytest.raises(InternalError):
            _verify_certificate(full, zeroed)
        assert gain_margin(certificate_gain(zeroed, f_s, f_i), mat_s, mat_i) == 0
        with pytest.raises(NotSeparable):
            separating_direction_from_certificate(pi_s, pi_i, zeroed)
    assert certificates >= 40 and padded > 0
