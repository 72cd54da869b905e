"""Algebras that the tests and the CLI battery (`cli_battery.py`) both verify."""

import dataclasses

import numpy as np

from solvgeom.algebra import MetricLieAlgebra
from solvgeom.carnot import build_solvmanifold, complex_hyperbolic_triple


def ch2_gram_coupled():
    """CH^2 with <A, X1> = 0.3: its mean-curvature vector leaves a."""
    alg = build_solvmanifold(complex_hyperbolic_triple(2))
    gram = np.eye(alg.dim)
    gram[0, 1] = gram[1, 0] = 0.3
    return dataclasses.replace(alg, gram=gram)


def rank6_opposite_roots():
    """dim 48: a = R^6 acting on an abelian n = R^42 by 42 random roots,
    [e_a, n_j] = roots[j, a] n_j, two of them opposite, so 0 lies in their hull
    and no direction of a is positive."""
    k, m = 6, 42
    roots = np.random.default_rng(6).standard_normal((m, k))
    roots[1] = -roots[0]
    c = np.zeros((k + m,) * 3)
    j = np.arange(k, k + m)
    c[:k, j, j] = roots.T
    c[j, :k, j] = -roots
    return MetricLieAlgebra(c=c, gram=np.eye(k + m), a_indices=range(k),
                            n_indices=range(k, k + m))
