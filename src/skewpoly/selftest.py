"""The built-in example suite of the CLI's selftest verb, which alone
imports this module: seeded checks of worked examples and identities."""

from __future__ import annotations

import random

from .evaluation import check_product_rule, conjugate, divide, evaluate, fundamental
from .frames import conventional_frame, frobenius_frame
from .freering import from_terms, monomials_below, mul, variable
from .geometry import is_two_sided, rank_of
from .interpolation import dual_p_basis, lagrange_interpolate, lagrange_via_vandermonde
from .rings import FiniteField, QuaternionRing


def selftest_cases(seed):
    """(name, check) pairs; each check returns whether its case holds."""
    rng = random.Random(seed)
    gf4 = FiniteField(2, 2)
    gf5 = FiniteField(5)
    w = gf4.gen()
    H = QuaternionRing()

    def rand_poly(frame, max_deg, max_terms):
        monos = monomials_below(frame.n, max_deg + 1)
        pairs = []
        for _ in range(rng.randint(1, max_terms)):
            pairs.append((rng.choice(monos), frame.ring.random_element(rng)))
        return from_terms(frame, pairs)

    def case_field_arithmetic():
        return w * (w * w) == gf4.one() and gf5(2) + gf5(4) == gf5(1) and gf5(3).inv() == gf5(2)

    def case_quaternion_relations():
        i, j, k = H.i(), H.j(), H.k()
        return i * j == k and j * i == -k and (H(1, 1, 0, 0).inv() == H("1/2", "-1/2", 0, 0))

    def case_eval_reverses_plugin():
        f = conventional_frame(gf5, 2)
        F = mul(variable(f, 1), variable(f, 2))
        return evaluate(F, (gf5(2), gf5(3))) == gf5(1)

    def case_divide_reconstructs():
        f = conventional_frame(gf5, 2)
        for _ in range(20):
            F = rand_poly(f, 3, 4)
            a = (gf5.random_element(rng), gf5.random_element(rng))
            res = divide(F, a)
            if res.reconstruct(f, a) != F or evaluate(F, a) != res.remainder:
                return False
        return True

    def case_norm_recursion():
        fr1 = frobenius_frame(gf4, 1)
        return fundamental(fr1, (1, 1), (w,)) == gf4.one()

    def case_conjugacy():
        f = conventional_frame(H, 1)
        i, j = H.i(), H.j()
        return conjugate(f, (i,), H.one()) == (i,) and conjugate(f, (i,), j) == (-i,)

    def case_product_rule():
        fr = frobenius_frame(FiniteField(3, 2), 2)
        for _ in range(20):
            F = rand_poly(fr, 2, 3)
            G = rand_poly(fr, 2, 3)
            a = tuple(fr.ring.random_element(rng) for _ in range(2))
            if not check_product_rule(F, G, a).ok:
                return False
        return True

    def case_full_plane_rank():
        gf2 = FiniteField(2)
        f = conventional_frame(gf2, 2)
        pts = [(gf2(a), gf2(b)) for a in range(2) for b in range(2)]
        return rank_of(f, pts) == 4

    def case_frobenius_vanishing():
        gf3 = FiniteField(3)
        f = conventional_frame(gf3, 2)
        x1 = variable(f, 1)
        F = mul(mul(x1, x1), x1) - x1  # x^q - x with q = 3
        return all(
            evaluate(F, (gf3(a), gf3(b))).is_zero() for a in range(3) for b in range(3)
        )

    def case_dual_identity():
        fr = frobenius_frame(gf4, 1)
        pts = [(gf4(1),), (w,)]
        dual = dual_p_basis(fr, pts)
        for i, F in enumerate(dual.duals):
            for j, b in enumerate(pts):
                want = gf4.one() if i == j else gf4.zero()
                if evaluate(F, b) != want:
                    return False
        return True

    def case_interpolation_agrees():
        # one variable, and five points of GF(3)^2 whose Vandermonde rows
        # reach full rank at degree 3, below the verifier's degree 5
        gf3, gf7 = FiniteField(3), FiniteField(7)
        line, plane = conventional_frame(gf7, 1), conventional_frame(gf3, 2)
        jobs = (
            (line, [(gf7(1),), (gf7(3),), (gf7(5),)], [gf7(2), gf7(0), gf7(6)]),
            (plane, [(gf3(a), gf3(b)) for a, b in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0))],
             [gf3(v) for v in (1, 2, 0, 1, 2)]),
        )
        for f, pts, vals in jobs:
            F = lagrange_interpolate(f, pts, vals)
            G = lagrange_via_vandermonde(f, pts, vals)
            if not all(evaluate(F, p) == v and evaluate(G, p) == v for p, v in zip(pts, vals)):
                return False
        return True

    def case_degree_additivity():
        fr = frobenius_frame(gf4, 2)
        for _ in range(20):
            F = rand_poly(fr, 3, 3)
            G = rand_poly(fr, 3, 3)
            if F.is_zero() or G.is_zero():
                continue
            if mul(F, G).degree() != F.degree() + G.degree():
                return False
        return True

    def case_one_sided_witness():
        fr1 = frobenius_frame(gf4, 1)
        return not is_two_sided(fr1, [(gf4(1),)])

    return [
        ("field-arithmetic", case_field_arithmetic),
        ("quaternion-relations", case_quaternion_relations),
        ("eval-reverses-plugin", case_eval_reverses_plugin),
        ("divide-reconstructs", case_divide_reconstructs),
        ("norm-recursion", case_norm_recursion),
        ("conjugacy", case_conjugacy),
        ("product-rule", case_product_rule),
        ("full-plane-rank", case_full_plane_rank),
        ("frobenius-vanishing", case_frobenius_vanishing),
        ("dual-identity", case_dual_identity),
        ("interpolation-agrees", case_interpolation_agrees),
        ("degree-additivity", case_degree_additivity),
        ("one-sided-witness", case_one_sided_witness),
    ]
