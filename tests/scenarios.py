"""Scenarios and sympy references shared by several test modules."""

import itertools
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

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
    ctx = ActionContext(dom, mats, h_mats, v1, faithful_h=faithful,
                        target_index=comb(n, k))
    proj = np.zeros((n, k), dtype=np.int64)
    proj[np.arange(k), np.arange(k)] = 1
    helper = HelperSetup(ctx, [((i, 1),) for i in range(k - 1)],
                         FqMatrix(2, proj))
    return ctx, helper


def ordered_tuples_instance(n, k, primes):
    """S_n on the ordered k-tuples of distinct points, based at
    (0, ..., k-1): H = S_(n-k), and p divides |H| for every p <= n - k."""
    tuples = list(itertools.permutations(range(n), k))
    idx = {t: i for i, t in enumerate(tuples)}
    G = GeneratedGroup([Permutation([idx[tuple(map(g, t))] for t in tuples])
                        for g in corpus._symmetric(n).gens])
    return corpus.Instance(f"S{n}-ordered-{k}-tuples", G, primes=primes)


# Address-space cap of `run_memory_capped`'s interpreter.
MEMORY_CAP = 2 << 30


def run_memory_capped(snippet):
    """Run Python source in a fresh interpreter that first caps its own
    address space at MEMORY_CAP bytes (RLIMIT_AS), with src/ and tests/ on
    its path; returns the CompletedProcess, output captured as text.  A
    runaway allocation then ends the child in MemoryError and leaves the
    machine's memory alone."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]))
    cap = ("import resource\n"
           "resource.setrlimit(resource.RLIMIT_AS, (%d, %d))\n"
           % (MEMORY_CAP, MEMORY_CAP))
    return subprocess.run(
        [sys.executable, "-c", cap + textwrap.dedent(snippet)], env=env,
        capture_output=True, text=True)


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
