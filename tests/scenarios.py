"""Scenarios and sympy references shared by several test modules."""

import itertools
from fractions import Fraction
from math import comb, factorial

import numpy as np
import sympy

from endoperm import corpus
from endoperm.gfmat import FqMatrix
from endoperm.orbenum import ActionContext, HelperSetup, VectorDomain
from endoperm.permgrp import GeneratedGroup, Permutation, evaluate_word


def _transposition_word(i):
    """(i i+1) as a word in a = (0 1) and b = (0 1 ... n-1)."""
    return ((1, -1),) * i + ((0, 1),) + ((1, 1),) * i


def johnson_context(n, k):
    """(ctx, helper) for J(n, k) on an F_2 vector domain: S_n by permutation
    matrices on the weight-k vectors, H = S_k x S_(n-k) fixing
    e_0 + ... + e_(k-1), K = S_k with the projection onto the first k
    coordinates as helper.  The H-orbits are the k+1 classes of
    |support meet {0..k-1}|."""
    a = Permutation([1, 0] + list(range(2, n)))
    b = Permutation([(i + 1) % n for i in range(n)])
    h_words = [_transposition_word(i) for i in range(n - 1) if i != k - 1]
    faithful = GeneratedGroup([evaluate_word(w, [a, b]) for w in h_words], n)
    assert faithful.order() == factorial(k) * factorial(n - k)
    mats = []
    for g in (a, b):
        m = np.zeros((n, n), dtype=np.int64)
        m[np.arange(n), list(g.images)] = 1
        mats.append(FqMatrix(2, m))
    h_mats = [evaluate_word(w, mats, FqMatrix.identity(2, n))
              for w in h_words]
    dom = VectorDomain(2, n)
    v1 = dom.encode([1] * k + [0] * (n - k))
    ctx = ActionContext(dom, mats, h_mats, v1, h_words=h_words,
                        faithful_h=faithful, target_index=comb(n, k))
    proj = np.zeros((n, k), dtype=np.int64)
    proj[np.arange(k), np.arange(k)] = 1
    helper = HelperSetup(ctx, [((i, 1),) for i in range(k - 1)],
                         FqMatrix(2, proj))
    return ctx, helper


def ordered_pairs_instance(n, primes):
    """S_n on the n(n-1) ordered pairs of distinct points, based at (0, 1):
    H = S_(n-2), and p divides |H| for every p < n - 1."""
    pairs = list(itertools.permutations(range(n), 2))
    idx = {pair: k for k, pair in enumerate(pairs)}
    G = GeneratedGroup([Permutation([idx[g(i), g(j)] for i, j in pairs])
                        for g in corpus._symmetric(n).gens])
    return corpus.Instance(f"S{n}-ordered-pairs", G, primes=primes)


def sym(x):
    """A QuadraticNumber, Fraction or int as a sympy number."""
    if not hasattr(x, "b"):
        return sympy.Rational(x.numerator, x.denominator)
    return sym(x.a) + sym(x.b) * sympy.sqrt(x.n)


def radical_dict(expr):
    """A sympy sum of rational multiples of square roots as
    {squarefree radicand: Fraction coefficient}, zero coefficients left
    out: the form of RadicalVector.dot."""
    return {int(k ** 2): Fraction(int(c.p), int(c.q))
            for k, c in sympy.expand(expr).as_coefficients_dict().items()
            if c}
