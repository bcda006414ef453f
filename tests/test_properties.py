"""Fast property smoke tests; the full-size suites run in test_acceptance."""

import itertools
import random
from fractions import Fraction as F

from conftest import (
    ht,
    rand_hyper,
    rand_program,
    rand_small_init,
    refine_hyper,
    small_scope_module,
)
from hyperflow.attack import synthesize_and_verify, verify_attack
from hyperflow.lang import ast as A
from hyperflow.lang import desugar, parse
from hyperflow.matrix import RatMatrix
from hyperflow.measures import bayes_vuln, gain_vulnerability, shannon_entropy_partition
from hyperflow.normalform import eval_via_normal_form
from hyperflow.probcore import FiniteDist, vnum
from hyperflow.refine import (
    NotRefined,
    RefinementWitness,
    bv_partition,
    check_refinement,
    extract_partition,
    hidden_columns,
    refines,
)
from hyperflow.semantics import Scope, eval_module
from hyperflow.semantics import eval as eval_hyper

HVALS = [vnum(k) for k in range(3)]
VVALS = [vnum(0), vnum(1)]


def test_refinement_reflexive_random():
    rng = random.Random(1)
    for _ in range(50):
        h = rand_hyper(rng, VVALS, HVALS)
        assert refines(h, h)


def test_refinement_transitive_random():
    rng = random.Random(2)
    for _ in range(50):
        h1 = rand_hyper(rng, VVALS, HVALS)
        h2 = refine_hyper(rng, h1)
        h3 = refine_hyper(rng, h2)
        assert refines(h1, h2) and refines(h2, h3) and refines(h1, h3)


def test_refinement_antisymmetric_random():
    rng = random.Random(3)
    both = 0
    for _ in range(50):
        h1 = rand_hyper(rng, VVALS, HVALS)
        h2 = refine_hyper(rng, h1)
        if refines(h2, h1):
            both += 1
            assert h1 == h2
    assert both >= 1  # permutation-only refinements do occur


def test_soundness_of_bayes_under_refinement_random():
    rng = random.Random(4)
    for _ in range(50):
        h1 = rand_hyper(rng, VVALS, HVALS)
        h2 = refine_hyper(rng, h1)
        assert bayes_vuln(h2) <= bayes_vuln(h1)


def test_strict_shannon_gain_when_merging_dissimilar_fractions():
    # merging two dissimilar fractions strictly increases partition entropy
    f1 = FiniteDist([(ht(0), F(1, 4))])
    f2 = FiniteDist([(ht(1), F(1, 4)), (ht(2), F(1, 4))])
    merged = f1.add(f2)
    separate = shannon_entropy_partition([f1, f2])
    joined = shannon_entropy_partition([merged])
    assert joined.lo > separate.hi


def test_strict_shannon_soundness_on_refine_fixtures():
    # a proper refinement (not a mere reordering) strictly increases the
    # conditional Shannon entropy
    from hyperflow.measures import shannon_entropy

    rng = random.Random(47)
    strict = 0
    for _ in range(40):
        h1 = rand_hyper(rng, VVALS, HVALS)
        h2 = refine_hyper(rng, h1)
        if h1 == h2:
            continue
        s1, s2 = shannon_entropy(h1), shannon_entropy(h2)
        assert s2.lo > s1.hi
        strict += 1
    assert strict >= 20


def test_similar_merge_keeps_shannon_exact():
    f1 = FiniteDist([(ht(0), F(1, 8)), (ht(1), F(1, 8))])
    f2 = f1.scale(F(1, 2))
    separate = shannon_entropy_partition([f1, f2])
    joined = shannon_entropy_partition([f1.add(f2)])
    assert separate.lo <= joined.hi and joined.lo <= separate.hi


def test_monotonicity_smoke():
    # P is refined by atomic{P} from every initial split-state, so every
    # context must preserve the relation
    rng = random.Random(5)
    from conftest import rand_context

    base = rand_program(rng, depth=2, allow_local=False)
    spec, impl = base, A.Atomic(base)
    scope = Scope.of_module(small_scope_module(A.Skip()))
    for _ in range(30):
        ctx = rand_context(rng, depth=1)
        s = rand_small_init(rng)
        hs = eval_hyper(desugar(small_scope_module(ctx(spec))).body, scope, s)
        hi = eval_hyper(desugar(small_scope_module(ctx(impl))).body, scope, s)
        assert isinstance(check_refinement(hs, hi), RefinementWitness)


def test_atomic_wrap_always_refines():
    # suppressing recall and implicit flow only makes a program safer
    rng = random.Random(6)
    scope = Scope.of_module(small_scope_module(A.Skip()))
    for _ in range(30):
        p = rand_program(rng, depth=2, allow_local=False)
        s = rand_small_init(rng)
        hyper_p = eval_hyper(desugar(small_scope_module(p)).body, scope, s)
        hyper_at = eval_hyper(
            desugar(small_scope_module(A.Atomic(p))).body, scope, s
        )
        assert refines(hyper_p, hyper_at)


def _rand_gain(rng, n_guesses, n_columns):
    return [[F(rng.randint(-3, 3)) for _ in range(n_columns)] for _ in range(n_guesses)]


def _partitions(hyper):
    """Each visible value's partition of hyper as a matrix over its own
    hidden values."""
    for v in hyper.visible_values():
        pi = extract_partition(hyper, v)
        yield pi, pi.matrix(pi.h_support())


def test_gain_vulnerability_is_the_best_simple_merge():
    # V_X(Pi) is the largest score <M Pi, X> of a simple M, which sends each
    # fraction of Pi whole to one guess row of X
    rng = random.Random(16)
    for _ in range(40):
        for pi, mat in _partitions(rand_hyper(rng, VVALS, HVALS)):
            f_i = rng.randint(1, 3)
            x = RatMatrix(_rand_gain(rng, f_i, mat.ncols))
            best = max(
                (
                    RatMatrix([[F(int(r == row)) for r in assignment] for row in range(f_i)]) @ mat
                ).dot(x)
                for assignment in itertools.product(range(f_i), repeat=len(pi))
            )
            assert gain_vulnerability(x.rows, mat.rows) == best


def test_identity_gain_is_bayes_vulnerability():
    rng = random.Random(17)
    for _ in range(40):
        for pi, mat in _partitions(rand_hyper(rng, VVALS, HVALS)):
            identity = RatMatrix.identity(mat.ncols)
            assert gain_vulnerability(identity.rows, mat.rows) == bv_partition(pi)


def test_no_gain_prefers_atomic_p_to_p():
    # the closure theorem's refining half in gain form: P refines to
    # atomic{P}, so no gain scores the impl above the spec at any v
    rng = random.Random(18)
    scope = Scope.of_module(small_scope_module(A.Skip()))
    for _ in range(80):
        p = rand_program(rng, depth=2, allow_local=False)
        s = rand_small_init(rng)
        spec = eval_hyper(desugar(small_scope_module(p)).body, scope, s)
        impl = eval_hyper(desugar(small_scope_module(A.Atomic(p))).body, scope, s)
        for v in spec.visible_values():
            pi_s, pi_i = extract_partition(spec, v), extract_partition(impl, v)
            columns = hidden_columns(pi_s, pi_i)
            mat_s, mat_i = pi_s.matrix(columns), pi_i.matrix(columns)
            for _ in range(5):
                gain = _rand_gain(rng, rng.randint(1, 3), len(columns))
                assert gain_vulnerability(gain, mat_i.rows) <= gain_vulnerability(gain, mat_s.rows)


def test_no_attack_context_prefers_atomic_p_to_p():
    # the closure theorem's refining half with contexts: P refines to
    # atomic{P}, so contexts that attack built for other failing pairs over
    # the same declarations never score impl ; C above spec ; C
    rng = random.Random(19)
    pairs = []  # (P, atomic{P}, init) where atomic{P} does not refine to P
    while len(pairs) < 36:
        p = desugar(small_scope_module(rand_program(rng, depth=2, allow_local=False)))
        s = rand_small_init(rng)
        atomic_p = A.Module(p.decls, A.Atomic(p.body))
        if isinstance(check_refinement(eval_module(atomic_p, s), eval_module(p, s)), NotRefined):
            pairs.append((p, atomic_p, s))
    contexts = [synthesize_and_verify(atomic_p, p, s).context for p, atomic_p, s in pairs[:6]]
    strict = 0
    for p, atomic_p, s in pairs[6:]:
        for context in contexts:
            report = verify_attack(p, atomic_p, context, (), None, s)
            assert report.bv_impl <= report.bv_spec
            strict += report.bv_impl < report.bv_spec
    assert strict >= 20  # the contexts do tell P from atomic{P}


TWO_HIDDEN_HEADER = parse("vis v : {0..1}; hid h : {0..2}; hid k : {0..1}; skip")


def test_not_refined_atomic_pairs_have_verified_attacks_over_two_hidden_variables():
    # the closure theorem's NotRefined half: P refines to atomic{P}, so
    # wherever atomic{P} does not refine to P some context tells them apart
    rng = random.Random(14)
    scope = Scope.of_module(TWO_HIDDEN_HEADER)
    attacked = 0
    for _ in range(120):
        body = rand_program(rng, depth=3, allow_local=False, k_dom=2)
        p = desugar(A.Module(TWO_HIDDEN_HEADER.decls, body))
        spec = A.Module(p.decls, A.Atomic(p.body))
        s = rand_small_init(rng, k_dom=2)
        hyper_p = eval_hyper(p.body, scope, s)
        assert eval_via_normal_form(p.body, scope, s) == hyper_p
        if isinstance(check_refinement(eval_module(spec, s), hyper_p), NotRefined):
            for method in ("farkas", "vertices"):
                rep = synthesize_and_verify(spec, p, s, method=method)
                assert rep.verdict
            attacked += 1
    assert attacked >= 20


def test_not_refined_reveal_pairs_have_verified_attacks_by_both_routes():
    # P ; reveal h leaks at least what P does, so where P does not refine
    # to it both routes build a context that tells them apart
    rng = random.Random(7)
    attacked = 0
    for _ in range(50):
        body = rand_program(rng, depth=3, allow_local=False, k_dom=2)
        p = desugar(A.Module(TWO_HIDDEN_HEADER.decls, body))
        impl = A.Module(p.decls, A.Seq(p.body, A.Reveal(A.Name("h"))))
        s = rand_small_init(rng, k_dom=2)
        if isinstance(check_refinement(eval_module(p, s), eval_module(impl, s)), NotRefined):
            for method in ("farkas", "vertices"):
                assert synthesize_and_verify(p, impl, s, method=method).verdict
            attacked += 1
    assert attacked >= 40
