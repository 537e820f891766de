"""Whitened Gaussian space on R^n.

All computation happens in coordinates where the reference measure is the
standard Gaussian N(0, I_n) and the admissible-shift norm is Euclidean.
brownian_kl_profile gives the eigenvalue decay of the Brownian embedding
that produced those coordinates; it is used only to build demo bodies.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, ParameterError

SAMPLE_CHUNK = 1 << 16
DEFAULT_FD_STEP = 1e-5
DETERMINISTIC_METHODS = ("gauss_hermite", "polar")

__all__ = [
    "EstimateWithError",
    "TestFunction",
    "as_direction",
    "normalize_direction",
    "gaussian_density",
    "split_along",
    "adjoint_derivative",
    "sample_gaussian",
    "gauss_hermite_nodes",
    "brownian_kl_profile",
    "map_chunks",
]


@dataclass(frozen=True)
class EstimateWithError:
    """A numerical estimate with its uncertainty, sample count and method."""

    value: float
    std_error: float
    n_samples: int
    method: str
    details: Optional[dict] = None

    def __post_init__(self):
        if self.std_error < 0:
            raise ParameterError("std_error must be nonnegative")
        if self.method in DETERMINISTIC_METHODS and self.std_error != 0.0:
            raise ParameterError(f"method {self.method} must report std_error 0")
        if self.method not in DETERMINISTIC_METHODS and self.method != "monte_carlo":
            raise ParameterError(f"unknown method {self.method!r}")

    def __add__(self, other: "EstimateWithError") -> "EstimateWithError":
        method = (
            "monte_carlo"
            if "monte_carlo" in (self.method, other.method)
            else ("polar" if "polar" in (self.method, other.method) else self.method)
        )
        return EstimateWithError(
            value=self.value + other.value,
            std_error=math.hypot(self.std_error, other.std_error),
            n_samples=max(self.n_samples, other.n_samples),
            method=method,
        )


def brownian_kl_profile(n: int) -> tuple:
    """First n eigenvalues lambda_k = ((k - 1/2) pi)^(-2) of the Brownian
    covariance, the stock spectral profile for demo configurations."""
    k = np.arange(1, n + 1)
    return tuple(((k - 0.5) * math.pi) ** -2.0)


@dataclass(frozen=True)
class TestFunction:
    """A scalar test function with a Lipschitz bound.

    evaluator acts on points of shape (n,) or batches (N, n) and returns a
    scalar / (N,) array. analytic_gradient, when present, follows the same
    batch convention and returns (n,) / (N, n).
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    lipschitz_bound: float
    analytic_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "psi"

    def __post_init__(self):
        if not self.lipschitz_bound > 0:
            raise ParameterError("lipschitz_bound must be positive")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluator(np.asarray(x, dtype=float))


def as_direction(h, dim: Optional[int] = None) -> np.ndarray:
    """Validate h as a unit vector (Euclidean norm 1 within 1e-12)."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 1:
        raise DomainError(f"direction must be a 1-d vector, got shape {h.shape}")
    if dim is not None and h.shape[0] != dim:
        raise DomainError(f"direction has dim {h.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(h)):
        raise DomainError("direction has non-finite entries")
    nrm = float(np.linalg.norm(h))
    if abs(nrm - 1.0) > 1e-12:
        raise DomainError(f"direction norm {nrm!r} differs from 1 by more than 1e-12")
    return h


def normalize_direction(v) -> np.ndarray:
    """Scale v to unit norm and return it as a valid direction."""
    v = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(v)
    if not np.isfinite(nrm) or nrm == 0.0:
        raise DomainError("cannot normalize a zero or non-finite vector")
    return as_direction(v / nrm)


def gaussian_density(m: int, z) -> float:
    """Density (2 pi)^(-m/2) exp(-|z|^2 / 2) of the standard Gaussian on R^m.

    z may be a single point of shape (m,) or a batch (N, m).
    """
    if int(m) != m or m < 1:
        raise ParameterError(f"m must be a positive integer, got {m}")
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise DomainError("gaussian_density requires finite input")
    if z.shape[-1] != m:
        raise DomainError(f"point has dim {z.shape[-1]}, expected {m}")
    sq = np.sum(np.square(z), axis=-1)
    out = np.exp(-0.5 * sq) * (2.0 * math.pi) ** (-0.5 * m)
    return float(out) if np.ndim(out) == 0 else out


def split_along(x, h) -> tuple:
    """Split x = y + t*h with y orthogonal to the unit direction h.

    Returns (y, t). Batches (N, n) give ((N, n), (N,)).
    """
    x = np.asarray(x, dtype=float)
    h = as_direction(h, dim=x.shape[-1])
    t = x @ h
    y = x - np.multiply.outer(t, h)
    return y, (float(t) if np.ndim(t) == 0 else t)


def _direction_stack(h, dim: int) -> tuple:
    """Validate one direction (n,) or a stack (K, n) of them.

    Returns (list of K unit directions, single), single being True for one
    direction; each direction is its own contiguous copy.
    """
    H = np.asarray(h, dtype=float)
    if H.ndim not in (1, 2) or H.shape[0] == 0:
        raise DomainError(
            f"directions must be one vector (n,) or a nonempty stack (K, n), got shape {H.shape}"
        )
    return [as_direction(np.array(k), dim=dim) for k in np.atleast_2d(H)], H.ndim == 1


def adjoint_derivative(psi: TestFunction, h, x, fd_step: float = DEFAULT_FD_STEP):
    """Adjoint directional derivative of psi along h at x:
    (d_h psi)(x) - psi(x) * <h, x>, with d_h psi analytic when a gradient is
    attached, otherwise by central differences with step fd_step.

    x: one point (n,) or a batch (N, n). h: one direction (n,), giving a
    float or (N,) values, or a stack (K, n), giving (K,) or (K, N) values,
    row j for h[j]. psi and its analytic gradient are evaluated once for
    the whole stack, and row j equals the call with h[j] alone bit for bit.
    """
    if not fd_step > 0:
        raise ParameterError("fd_step must be positive")
    x = np.asarray(x, dtype=float)
    hs, single = _direction_stack(h, x.shape[-1])
    if psi.analytic_gradient is not None:
        grad = np.asarray(psi.analytic_gradient(x))
        slopes = [grad @ k for k in hs]
        # the (N, n) gradient is not needed past here; freeing it before psi
        # runs keeps it out of each sample chunk's peak memory
        del grad
    else:
        slopes = [(psi(x + fd_step * k) - psi(x - fd_step * k)) / (2.0 * fd_step) for k in hs]
    value = psi(x)
    val = np.asarray([slope - value * (x @ k) for slope, k in zip(slopes, hs)])
    if single:
        val = val[0]
    return float(val) if np.ndim(val) == 0 else val


def _chunk_sizes(count: int) -> list:
    sizes = [SAMPLE_CHUNK] * (count // SAMPLE_CHUNK)
    if count % SAMPLE_CHUNK:
        sizes.append(count % SAMPLE_CHUNK)
    return sizes


def map_chunks(fn: Callable[[int, int], object], count: int, threads: Union[int, Executor] = 1) -> list:
    """Apply fn(chunk_index, chunk_size) over fixed-size chunks.

    threads: a worker count, the chunks running on a pool of that many
    threads of their own (in the caller at 1), or an Executor whose
    workers the chunks share with its other tasks. verify_ibp passes one:
    its surface side is one task on the workers that draw the volume
    side's chunks. A task on that Executor must not
    map chunks on it: it would wait on the workers it holds.
    Chunk boundaries depend only on count, and results are combined in chunk
    order, so the output is invariant under the workers that run it.
    """
    sizes = _chunk_sizes(count)
    if isinstance(threads, Executor):
        return list(threads.map(fn, range(len(sizes)), sizes))
    if threads <= 1 or len(sizes) <= 1:
        return [fn(i, s) for i, s in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(len(sizes)), sizes))


def sample_gaussian(dim: int, count: int, seed: int, threads: int = 1) -> np.ndarray:
    """count i.i.d. standard-Gaussian points in R^dim.

    Each fixed-size chunk draws from its own generator seeded by
    (seed, chunk_index), so output is bitwise-deterministic and independent
    of the number of worker threads.
    """
    if count < 1:
        raise ParameterError("count must be >= 1")

    def draw(idx: int, size: int) -> np.ndarray:
        rng = np.random.default_rng([seed, idx])
        return rng.standard_normal((size, dim))

    return np.concatenate(map_chunks(draw, count, threads=threads), axis=0)


def gauss_hermite_nodes(order: int, dim: int) -> tuple:
    """Tensor Gauss-Hermite rule for integrals against the standard Gaussian
    on R^dim: returns (nodes (M, dim), weights (M,)) with sum(weights) = 1."""
    if order < 1 or dim < 1:
        raise ParameterError("order and dim must be positive")
    x1, w1 = np.polynomial.hermite_e.hermegauss(order)
    w1 = w1 / math.sqrt(2.0 * math.pi)
    node_grids = np.meshgrid(*([x1] * dim), indexing="ij")
    weight_grids = np.meshgrid(*([w1] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in node_grids], axis=-1)
    weights = np.prod(np.stack([g.ravel() for g in weight_grids], axis=-1), axis=-1)
    return nodes, weights
