"""Analytic probe fields with exact derivatives up to second order.

Three constructors cover everything the norm and lemma checks need:
polynomials (differentiated term by term), plane composites g(a.x), and
separable products of 1-D factors.  The derivative tables are exact, which
keeps the battery checks independent of finite differences; a test compares
them against symbolic differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import BallGrid


@dataclass(frozen=True)
class Probe:
    """Named analytic function with an exact derivative oracle."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[tuple[int, ...], np.ndarray], np.ndarray]

    def values(self, grid: BallGrid, beta=None) -> np.ndarray:
        """The function, or its exact derivative beta, at every grid node,
        as an (N,) array of finite floats."""
        vals = np.asarray(self.fn(grid.nodes) if beta is None
                          else self.deriv(beta, grid.nodes), dtype=np.float64)
        if vals.shape != (grid.node_count,):
            raise ValueError(f"values shape {vals.shape} does not match "
                             f"node count {grid.node_count}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        return vals


def _falling(e: int, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= e - i
    return out


def polynomial(name: str, terms: dict[tuple[int, ...], float]) -> Probe:
    """Probe for sum_e c_e * x^e given {exponents: coefficient}."""
    items = [(np.asarray(e, dtype=np.int64), float(c)) for e, c in terms.items()]

    def fn(pts):
        out = np.zeros(pts.shape[0])
        for e, c in items:
            out += c * np.prod(pts**e, axis=1)
        return out

    def deriv(beta, pts):
        b = np.asarray(beta, dtype=np.int64)
        out = np.zeros(pts.shape[0])
        for e, c in items:
            if np.any(e < b):
                continue
            coef = c
            for d in range(len(beta)):
                coef *= _falling(int(e[d]), int(b[d]))
            out += coef * np.prod(pts ** (e - b), axis=1)
        return out

    return Probe(name, fn, deriv)


def plane_composite(name: str, a, g_derivs) -> Probe:
    """Probe for g(a.x) where g_derivs(k, s) evaluates g^(k)."""
    a = np.asarray(a, dtype=np.float64)

    def fn(pts):
        return g_derivs(0, pts @ a)

    def deriv(beta, pts):
        k = sum(beta)
        coef = float(np.prod(a**np.asarray(beta)))
        return coef * g_derivs(k, pts @ a)

    return Probe(name, fn, deriv)


def plane_sin(name: str, a, phase: float = 0.0) -> Probe:
    def g(k, s):
        return np.sin(s + phase + k * math.pi / 2.0)
    return plane_composite(name, a, g)


def plane_exp(name: str, a) -> Probe:
    def g(k, s):
        return np.exp(s)
    return plane_composite(name, a, g)


# 1-D factors for separable probes: factor(order, t) -> values -------------

def fsin(freq: float = 1.0, phase: float = 0.0):
    def factor(k, t):
        return freq**k * np.sin(freq * t + phase + k * math.pi / 2.0)
    return factor


def fcos(freq: float = 1.0):
    return fsin(freq, phase=math.pi / 2.0)


def fexp(rate: float = 1.0):
    def factor(k, t):
        return rate**k * np.exp(rate * t)
    return factor


def fgauss(a: float = 1.0):
    def factor(k, t):
        e = np.exp(-a * t * t)
        if k == 0:
            return e
        if k == 1:
            return -2.0 * a * t * e
        return (4.0 * a * a * t * t - 2.0 * a) * e
    return factor


def fpoly(coeffs):
    c = np.asarray(coeffs, dtype=np.float64)  # c[k] multiplies t^k

    def factor(k, t):
        out = np.zeros_like(t)
        for e in range(k, c.shape[0]):
            out += c[e] * _falling(e, k) * t ** (e - k)
        return out

    return factor


def fone():
    def factor(k, t):
        if k == 0:
            return np.ones_like(t)
        return np.zeros_like(t)
    return factor


def separable(name: str, factors) -> Probe:
    """Probe for prod_d factor_d(x_d)."""
    factors = list(factors)

    def fn(pts):
        out = np.ones(pts.shape[0])
        for d, fac in enumerate(factors):
            out = out * fac(0, pts[:, d])
        return out

    def deriv(beta, pts):
        out = np.ones(pts.shape[0])
        for d, fac in enumerate(factors):
            out = out * fac(int(beta[d]), pts[:, d])
        return out

    return Probe(name, fn, deriv)


def with_zero_jet(probe: Probe, n: int) -> Probe:
    """Subtract the origin value and gradient so the result has a zero 1-jet."""
    origin = np.zeros((1, n))
    f0 = float(probe.fn(origin)[0])
    g0 = np.array([float(probe.deriv(tuple(1 if k == d else 0 for k in range(n)),
                                     origin)[0]) for d in range(n)])

    def fn(pts):
        return probe.fn(pts) - f0 - pts @ g0

    def deriv(beta, pts):
        base = probe.deriv(beta, pts)
        order = sum(beta)
        if order == 0:
            return base - f0 - pts @ g0
        if order == 1:
            return base - g0[list(beta).index(1)]
        return base

    return Probe(probe.name + "_zerojet", fn, deriv)


# ---------------------------------------------------------------------------
# standard batteries


def coordinate_probe(n: int, d: int) -> Probe:
    e = tuple(1 if k == d else 0 for k in range(n))
    return polynomial(f"x{d + 1}", {e: 1.0})


def constant_probe(n: int, c: float = 1.0) -> Probe:
    return polynomial(f"const_{c:g}", {tuple(0 for _ in range(n)): c})


def radius_squared_probe(n: int) -> Probe:
    terms = {}
    for d in range(n):
        e = [0] * n
        e[d] = 2
        terms[tuple(e)] = 1.0
    return polynomial("|x|^2", terms)


def potential_probes(n: int) -> list[Probe]:
    """Default battery for the potential norm-ratio check: 1, x1, sin x1, |x|^2."""
    a1 = tuple(1.0 if d == 0 else 0.0 for d in range(n))
    return [
        constant_probe(n),
        coordinate_probe(n, 0),
        plane_sin("sin_x1", a1),
        radius_squared_probe(n),
    ]


def lemma_battery(n: int) -> list[Probe]:
    """Analytic functions exercised by the norm and remainder checks."""
    if n == 2:
        probes = [
            polynomial("x1^2", {(2, 0): 1.0}),
            polynomial("x1*x2", {(1, 1): 1.0}),
            polynomial("saddle", {(2, 0): 1.0, (0, 2): -1.0}),
            polynomial("x1^3", {(3, 0): 1.0}),
            polynomial("x1^2*x2", {(2, 1): 1.0}),
            polynomial("x1*x2^2", {(1, 2): 1.0}),
            radius_squared_probe(2),
            polynomial("harmonic_cubic", {(3, 0): 1.0, (1, 2): -3.0}),
            polynomial("quartic", {(4, 0): 1.0, (0, 4): 1.0}),
            polynomial("affine", {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 2.0}),
            plane_sin("sin_x1", (1.0, 0.0)),
            plane_sin("cos_x2", (0.0, 1.0), phase=math.pi / 2.0),
            plane_sin("sin_sum", (1.0, 1.0)),
            plane_sin("sin_skew", (2.0, -1.0)),
            plane_exp("exp_x1", (1.0, 0.0)),
            plane_exp("exp_half", (0.5, 0.5)),
            separable("sin*cos", [fsin(), fcos()]),
            separable("gaussian", [fgauss(), fgauss()]),
            separable("x1*sin_x2", [fpoly([0.0, 1.0]), fsin()]),
            separable("exp*cos", [fexp(), fcos()]),
            plane_sin("cos_skew", (1.0, 2.0), phase=math.pi / 2.0),
            separable("(1+x1^2)*cos", [fpoly([1.0, 0.0, 1.0]), fcos()]),
        ]
    else:
        probes = [
            polynomial("x1^2", {(2, 0, 0): 1.0}),
            polynomial("x1*x2", {(1, 1, 0): 1.0}),
            polynomial("x2*x3", {(0, 1, 1): 1.0}),
            polynomial("x1^3", {(3, 0, 0): 1.0}),
            radius_squared_probe(3),
            polynomial("saddle", {(2, 0, 0): 1.0, (0, 0, 2): -1.0}),
            plane_sin("sin_x1", (1.0, 0.0, 0.0)),
            plane_sin("sin_mix", (1.0, 1.0, -1.0)),
            plane_exp("exp_mix", (0.5, 0.25, 0.25)),
            separable("gaussian", [fgauss(), fgauss(), fgauss()]),
            separable("x1*sin_x2", [fpoly([0.0, 1.0]), fsin(), fone()]),
            separable("sin*cos*1", [fsin(), fcos(), fone()]),
        ]
    return probes
