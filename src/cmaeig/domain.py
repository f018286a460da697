"""Domains, densities, and uniform Cartesian grids over R^{2n}.

A bounded strongly pseudoconvex domain Omega in C^n is represented by a
defining function rho (rho < 0 inside, 0 on the boundary).  A grid couples a
uniform lattice of spacing h to the domain: nodes are classified Interior
(rho below a band of rounding width under 0, see build_grid), Boundary
(non-interior but face-adjacent to an interior node) or Exterior, and every
interior node stores, along each axis and direction, the
fractional distance theta in (0, 1] to the zero set of rho whenever the
neighbouring lattice node is not interior.  Those fractions feed the one-sided
(Shortley-Weller style) second differences used near the curved boundary.
They come from one vectorized bisection on rho per batch of cut edges, the
same for every kind of domain: build_grid makes one batch of all axis edges,
and direction_thetas one of every diagonal direction the complex Hessian
reads (both signs), on the first stencil that needs one.

Every interior node also carries a cell weight, the volume of its cell
[x - h/2, x + h/2]^{2n} inside the domain, read off the lattice's own rho
values (_cell_volumes): rho at the node and its 2n axis neighbours give the
central-difference gradient and the cell mean of rho (exact for quadratic
rho), and the cell is cut by that plane with the cube-section vertex sum.
Boundary nodes' slivers are handed to their interior face neighbours, so
the weights sum to the domain's volume up to a relative error of 2.1e-7 on
the unit disc at h = 1/128 and 1.9e-4 on the unit ball of C^2 at h = 0.125.
The rule is deterministic and sees the gradient only through the sizes of
its components, so every lattice symmetry of the grid maps the weights onto
themselves up to rounding in rho.

Real coordinates are ordered (x_1, y_1, ..., x_n, y_n): axis 2j is Re z_j and
axis 2j+1 is Im z_j.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy import ndimage
# Not called: perfbench/spans.py looks this binding up by name to time
# crossing root-finds, and would fail without it.
from scipy.optimize import brentq  # noqa: F401

from .errors import EmptyInterior, NonPositiveDensity, ResolutionTooCoarse

EXTERIOR, BOUNDARY, INTERIOR = 0, 1, 2

# Fractions closer to the node than this are clamped: the Shortley-Weller
# coefficients scale like 1/theta and would otherwise overflow when a node
# sits within rounding distance of the zero set.
_THETA_FLOOR = 1e-9

# Width of the boundary band relative to max |rho| over the lattice: a node is
# interior only if rho < -_RHO_BAND * max |rho|.  Lattice nodes on the zero
# set evaluate rho to a few ulps of that scale, of either sign (on the unit
# 4-ball at h = 0.1, 198 such nodes gave rho in (-1e-12, 0) and crossing
# fractions clamped to _THETA_FLOOR), while every other node of the grids
# measured has |rho| >= 1.8e-4 (unit disc, h = 1/128).
_RHO_BAND = 1e-12

# Halvings of the crossing bracket [0, 1].  60 leave it 2^-60 ~ 8.7e-19 wide:
# adjacent floats for every fraction >= 1/256, and far below the clamp
# _THETA_FLOOR for smaller ones.
_BISECTION_STEPS = 60

# A cut cell's plane drops gradient components below this share of the sum
# of their magnitudes (the value at the cell's midpoint replaces theirs): the
# vertex sum divides by the product of the components and would lose digits
# to cancellation for tiny ones, while dropping components of relative size
# up to t moves the cell's fraction by O(t).
_PLANE_DROP = 1e-3


# ---------------------------------------------------------------------------
# Domain specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    """Euclidean ball: rho(z) = |z - center|^2 - radius^2 (so dd^c rho = omega)."""

    n: int
    radius: float = 1.0
    center: tuple[float, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("complex dimension must be >= 1")
        if not 0 < self.radius < np.inf:
            raise ValueError("radius must be positive and finite")
        c = self.center if self.center else (0.0,) * (2 * self.n)
        if len(c) != 2 * self.n:
            raise ValueError("center must have 2n real coordinates")
        if not np.all(np.isfinite(c)):
            raise ValueError("center coordinates must be finite")
        object.__setattr__(self, "center", tuple(float(v) for v in c))


@dataclass(frozen=True)
class Ellipsoid:
    """rho(z) = sum_j |z_j|^2 / a_j^2 - 1 with semi-axes a_j per complex coordinate."""

    axes: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(float(a) for a in self.axes))
        if len(self.axes) < 1:
            raise ValueError("need at least one semi-axis")
        if any(not 0 < a < np.inf for a in self.axes):
            raise ValueError("all semi-axes must be positive and finite")

    @property
    def n(self):
        return len(self.axes)


@dataclass(frozen=True)
class CustomRho:
    """Polynomial defining function of degree <= 4 in the real coordinates.

    coeffs maps exponent multi-indices (length 2n) to coefficients.  The caller
    declares an interior seed point (rho(seed) < 0 is validated) and an
    explicit bounding box.  Strict plurisubharmonicity of rho is the caller's
    responsibility.  The solvers check it wherever they scale rho into a
    subsolution or a blended start (dirichlet._anchor): PreconditionViolated
    names a node where rho's discrete complex Hessian is not positive
    definite.
    """

    n: int
    coeffs: Mapping[tuple[int, ...], float]
    seed_point: tuple[float, ...]
    box: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("complex dimension must be >= 1")
        d = 2 * self.n
        cleaned = {}
        for expo, c in dict(self.coeffs).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != d or any(e < 0 for e in expo):
                raise ValueError("exponent multi-indices must have length 2n, entries >= 0")
            if sum(expo) > 4:
                raise ValueError("defining polynomials are restricted to degree <= 4")
            cleaned[expo] = float(c)
            if not np.isfinite(cleaned[expo]):
                raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "seed_point", tuple(float(v) for v in self.seed_point))
        if len(self.seed_point) != d:
            raise ValueError("seed point must have 2n real coordinates")
        box = tuple((float(a), float(b)) for a, b in self.box)
        if len(box) != d or any(b <= a for a, b in box):
            raise ValueError("bounding box must give a nonempty (lo, hi) per axis")
        if not np.all(np.isfinite(box)):
            raise ValueError("bounding box bounds must be finite")
        object.__setattr__(self, "box", box)
        if not eval_rho(self, np.asarray(self.seed_point)) < 0:
            raise ValueError("rho must be negative at the declared seed point")


DomainSpec = Ball | Ellipsoid | CustomRho


def _bounding_box(spec):
    """(2n, 2) array of per-axis (lo, hi) enclosing the closure of the domain."""
    if isinstance(spec, Ball):
        c = np.asarray(spec.center)
        return np.stack([c - spec.radius, c + spec.radius], axis=1)
    if isinstance(spec, Ellipsoid):
        a = np.repeat(np.asarray(spec.axes), 2)
        return np.stack([-a, a], axis=1)
    return np.asarray(spec.box)


def eval_rho(spec, points):
    """Defining function at one point (shape (2n,)) or a batch (m, 2n)."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if isinstance(spec, Ball):
        c = np.asarray(spec.center)
        vals = np.sum((pts - c) ** 2, axis=1) - spec.radius ** 2
    elif isinstance(spec, Ellipsoid):
        w = np.repeat(1.0 / np.asarray(spec.axes) ** 2, 2)
        vals = pts ** 2 @ w - 1.0
    else:
        vals = _eval_polynomial(spec.coeffs, pts)
    return vals[0] if single else vals


def _eval_polynomial(coeffs, pts):
    """sum of c * prod_ax x_ax^e_ax over {exponents: c} at a batch (m, d)."""
    vals = np.zeros(pts.shape[0])
    for expo, c in coeffs.items():
        term = np.full(pts.shape[0], c)
        for ax, e in enumerate(expo):
            if e:
                term *= pts[:, ax] ** e
        vals += term
    return vals


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    value: float = 1.0

    def __post_init__(self):
        if not 0 < self.value < np.inf:
            raise ValueError("constant density must be positive and finite")


@dataclass(frozen=True)
class GaussianBump:
    """f(x) = 1 + amplitude * exp(-|x - center|^2 / width^2)."""

    center: tuple[float, ...]
    amplitude: float
    width: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        if not np.all(np.isfinite(self.center)):
            raise ValueError("center coordinates must be finite")
        if not 0 < self.width < np.inf:
            raise ValueError("width must be positive and finite")
        if self.width ** 2 == 0.0:
            raise ValueError(f"width {self.width!r} underflows to 0 when squared")
        if not -1.0 < self.amplitude < np.inf:
            raise ValueError("amplitude must be finite and exceed -1 to keep f positive")


DensitySpec = Constant | GaussianBump


def eval_density(d, points):
    """Density at one point or a batch; strictly positive for valid specs."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if isinstance(d, Constant):
        vals = np.full(pts.shape[0], d.value)
    else:
        c = np.asarray(d.center)
        if c.shape != pts.shape[1:]:
            raise ValueError(f"bump center must have 2n = {pts.shape[1]} real "
                             f"coordinates, got {c.size}")
        vals = 1.0 + d.amplitude * np.exp(-np.sum((pts - c) ** 2, axis=1) / d.width ** 2)
    return vals[0] if single else vals


def _require_positive(vals, flat, grid, name):
    """Raise NonPositiveDensity naming the first node of flat (lattice
    indices, one per value) where vals is not finite and > 0."""
    bad = ~(np.isfinite(vals) & (vals > 0))
    if np.any(bad):
        worst = int(np.argmax(bad))
        raise NonPositiveDensity(
            f"{name} is {vals[worst]:.3e}, not finite and > 0, at node "
            f"{grid.unravel(flat[worst])}"
        )


def density_vector(d, grid, power=1):
    """Density (optionally f**power) at interior nodes; validates that f is
    finite and positive on the interior and boundary layer (the discrete
    closure of the domain), and f**power at the interior nodes, where the
    power can underflow to 0 or overflow to inf, naming the first node
    where a value is not."""
    closure = np.concatenate([grid.interior_flat, grid.boundary_flat])
    vals = eval_density(d, grid.node_coords(closure))
    _require_positive(vals, closure, grid, "density")
    inner = vals[:grid.num_interior]
    if power == 1:
        return inner
    with np.errstate(over="ignore"):
        inner = inner ** power
    _require_positive(inner, grid.interior_flat, grid, f"density^{power}")
    return inner


def density_weight(grid, fn):
    """fn, f^n at the interior nodes as density_vector returns it, or ones
    for None (f = 1); ValueError for anything but an array with one value
    per interior node, such as a density spec."""
    if fn is None:
        return np.ones(grid.num_interior)
    if not (isinstance(fn, np.ndarray) and fn.shape == (grid.num_interior,)):
        raise ValueError("fn must be an array of f^n with one value per interior node")
    return fn


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------


@dataclass
class GridDomain:
    """Immutable discretization of a domain (see module docstring).

    classification, interior data and cell volumes are fixed at construction.
    The private _cache memoizes the diagonal crossing fractions, derived
    stencil operators, the complex-Hessian operators that complex_hessian
    applies, its lattice symmetries (lattice_symmetries), the orbits of
    each group of them that fixed a solve's right-hand side
    (dirichlet.symmetry_orbits; the trivial group, one node per orbit, for
    data that only the identity fixes and for solves with none), for each
    such orbits the reduced Hessian operators R D P (hessian_operators) and
    the assembly plan through which trace_operator fills each n >= 2 Newton
    Jacobian R J P on them (its CSC pattern and the map from per-node
    weights to its values; also built for the full operators on request),
    the latest Hessian hessian_at evaluated with its operators and values
    (returned again for the same ones), and on an n = 1 grid the quarter
    Laplacian's LU on each orbits that a solve has met
    (dirichlet._laplacian_lu), all built on first use, and the n = 1 grid's
    shared branch basis on the orbits of its density.  It also holds the
    grid's latest Newton preconditioner "newton_lu": the LU of R J P for
    the last Newton Jacobian J factored on the grid (a grid's first Newton
    step always factors), on the orbits of that solve.  Every Newton step
    reuses it until GMRES misses the step's target or a solve on other
    orbits needs its own.  Which LU that is depends on the solves run
    before, and it moves each step only within that target: a relative
    residual of 5e-10 at n = 1, which leaves the Newton count alone, and the
    forcing term at n >= 2, which can change it.  Sharing a grid across
    threads is safe for reads; concurrent Newton solves may replace each
    other's preconditioner and latest Hessian, and concurrent n = 1 solves
    may factor the same orbit LU twice, which costs factorizations and
    evaluations, not accuracy.
    """

    spec: DomainSpec
    n: int
    h: float
    lo: np.ndarray
    shape: tuple[int, ...]
    classification: np.ndarray  # int8 over the full lattice, C-order flat
    interior_flat: np.ndarray  # (N,) sorted flat lattice indices
    boundary_flat: np.ndarray
    interior_pos: np.ndarray  # full lattice -> position in interior_flat, or -1
    interior_coords: np.ndarray  # (N, 2n)
    rho_interior: np.ndarray  # (N,)
    rho_band: float  # interior nodes have rho < -rho_band (build_grid)
    nbr_ipos: np.ndarray  # (N, 2n, 2) interior position of the +/- axis neighbour or -1
    theta_axis: np.ndarray  # (N, 2n, 2) crossing fraction, 1.0 when regular
    cell_volume: np.ndarray  # (N,)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_interior(self):
        return self.interior_flat.size

    def offset(self, v):
        """Flat-index offset of the lattice vector v."""
        return sum(int(c) * s for c, s in zip(v, _lattice_strides(self.shape), strict=True))

    def node_coords(self, flat):
        idx = np.unravel_index(np.asarray(flat), self.shape)
        return self.lo + self.h * np.stack(idx, axis=-1).astype(float)

    def unravel(self, flat):
        return tuple(int(v) for v in np.unravel_index(int(flat), self.shape))

    def interior_point(self, pos):
        """Coordinates of the interior node at position pos, as plain floats."""
        return tuple(float(v) for v in self.interior_coords[pos])

    def total_volume(self):
        return float(np.sum(self.cell_volume))

    def min_rho_position(self):
        """Interior position of the deepest node (most negative rho)."""
        return int(np.argmin(self.rho_interior))


def _crossing_fractions(spec, starts, directions, h):
    """Fractions theta in (0, 1] with rho(start + theta*h*direction) = 0, one per
    row of starts (m, 2n) and directions (m, 2n), by one batched bisection.

    Every start is interior (rho < 0).  All edges start on the bracket [0, 1]
    and are halved together _BISECTION_STEPS times, with rho evaluated as
    start + (theta*h)*direction; theta is the bracket's lower end, the last
    fraction where rho <= 0, so it is below 1 whenever rho > 0 at the far end.
    theta = 1 wherever rho at the far end is <= 0: that neighbour was
    classified non-interior (rho >= -grid.rho_band from its lattice
    coordinates) yet start + h*direction gives rho <= 0, so it lies on the
    zero set to rounding and 1 is the exact answer, not a fallback.  This
    happens on real grids, e.g. on 1 988 of the 20 224 cut edges of Ball(2)
    at h = 0.2.
    """
    m = starts.shape[0]

    def positive(s):
        return eval_rho(spec, starts + (s * h)[:, None] * directions) > 0.0

    lo, hi = np.zeros(m), np.ones(m)
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        up = positive(mid)
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    return np.where(positive(np.ones(m)), np.maximum(lo, _THETA_FLOOR), 1.0)


def direction_thetas(grid, v):
    """(N, 2) crossing fractions along +v and -v from every interior node, 1.0
    where that lattice neighbour is interior; cached on the grid.

    Axis fractions are build_grid's theta_axis.  The first miss computes v
    and every Hessian diagonal not yet cached (_symmetry_directions(n)[2n:])
    in one _crossing_fractions call, which treats each edge alone, so each
    direction's fractions are those of a call of its own, bit for bit."""
    v = tuple(v)
    if sum(abs(c) for c in v) == 1:
        a = int(np.flatnonzero(v)[0])
        return grid.theta_axis[:, a, :] if v[a] > 0 else grid.theta_axis[:, a, ::-1]
    key = ("theta", v)
    if key in grid._cache:
        return grid._cache[key]
    missing = [v] + [w for w in _symmetry_directions(grid.n)[2 * grid.n:]
                     if w != v and ("theta", w) not in grid._cache]
    cuts, starts, directions = [], [], []
    for w in missing:
        dw = grid.offset(w)
        nbr = grid.interior_flat[:, None] + np.array([dw, -dw])
        cut = np.argwhere(grid.interior_pos[nbr] < 0)  # rows (node, side)
        signs = np.where(cut[:, 1] == 0, 1.0, -1.0)
        cuts.append(cut)
        starts.append(grid.interior_coords[cut[:, 0]])
        directions.append(signs[:, None] * np.asarray(w, dtype=float))
    fractions = _crossing_fractions(grid.spec, np.concatenate(starts),
                                    np.concatenate(directions), grid.h)
    ends = np.cumsum([cut.shape[0] for cut in cuts])
    for w, cut, part in zip(missing, cuts, np.split(fractions, ends[:-1])):
        theta = np.ones((grid.num_interior, 2))
        theta[cut[:, 0], cut[:, 1]] = part
        grid._cache[("theta", w)] = theta
    return grid._cache[key]


@functools.lru_cache(maxsize=None)
def _symmetry_candidates(n):
    """The 2 * 4^n * n! signed permutations of the 2n centred lattice axes
    that commute or anticommute with the complex structure, each as (axes,
    signs, tau, sides): node c maps to the node whose centred axis b is
    signs[b] * c[axes[b]], and direction q of _symmetry_directions(n) maps
    to direction tau[q], reversed where sides[q] is (1, 0).

    Plane j of the image is plane j' of the source, taken as (x, y) or, where
    axes swaps them, as (y, x); the map is complex linear on that plane when
    its signs agree and it does not swap, or they differ and it swaps, and
    antilinear otherwise.  Every plane must agree, so conjugating z_1 alone
    is no candidate.  Ordered by axes, then by the pattern of negative signs:
    the identity first, and at n = 1 the 8 maps in the order of the
    original n = 1 rule."""
    directions = _symmetry_directions(n)
    index = {v: q for q, v in enumerate(directions)}
    out = []
    for planes in itertools.permutations(range(n)):
        for linear in (True, False):
            per_plane = [(swap, (s, t)) for swap in (0, 1) for s in (1, -1) for t in (1, -1)
                         if ((s == t) != bool(swap)) == linear]
            for choice in itertools.product(per_plane, repeat=n):
                axes = tuple(2 * p + (c ^ swap) for p, (swap, _) in zip(planes, choice)
                             for c in (0, 1))
                signs = tuple(s for _, pair in choice for s in pair)
                tau, sides = [], []
                for v in directions:
                    w = tuple(signs[b] * v[axes[b]] for b in range(2 * n))
                    flip = next(c for c in w if c) < 0
                    tau.append(index[tuple(-c for c in w) if flip else w])
                    sides.append((1, 0) if flip else (0, 1))
                out.append((axes, signs, np.array(tau)[:, None], np.array(sides)))
    out.sort(key=lambda c: (c[0], tuple(s < 0 for s in c[1])))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _symmetry_directions(n):
    """The lattice directions whose crossing fractions the complex Hessian
    reads: the 2n axes, then e_a + s e_b for a < b in different complex
    planes and s = +1, -1 (hessian.hessian_operators), first entry +1."""
    d = 2 * n
    axes = [tuple(int(a == b) for b in range(d)) for a in range(d)]
    diagonals = [tuple(1 if c == a else s if c == b else 0 for c in range(d))
                 for a in range(d) for b in range(a + 1, d) if a // 2 != b // 2
                 for s in (1, -1)]
    return tuple(axes + diagonals)


def lattice_symmetries(grid):
    """(k, N) permutations of interior positions, one row per lattice
    symmetry of the grid, the identity first: row s maps node i to node
    s[i], so interior values v are invariant under it when v[s] == v.  Built
    on the first call and cached in grid._cache; build_grid builds none.

    build_grid anchors the lattice at the box centre with an odd shape, so
    the candidates are the signed permutations of the 2n centred lattice
    axes that commute or anticommute with the complex structure
    (_symmetry_candidates): 8 at n = 1, 64 at n = 2.  A candidate is kept
    only if it maps three things onto themselves exactly (np.array_equal,
    no tolerance): the interior node set, theta_axis, and the crossing
    fractions of every diagonal direction the complex Hessian reads
    (direction_thetas, computed here if no stencil has yet).  The stencils
    are built from those fractions and h alone, so each second difference
    then commutes with every kept map bit for bit; at n = 1 so does the
    quarter Laplacian.  At a dyadic h every crossing fraction maps exactly
    onto its image: the disc keeps all 8 maps (h = 1/64, 1/128), the unit
    4-ball and Ellipsoid((1, 1.5)) keep 16 of 64 at h = 0.25 (rounding in
    rho's sum of squares loses the rest).  Elsewhere rounding leaves fewer:
    the identity and the x <-> y swap on the disc at h = 0.1, the identity
    alone on the 4-ball at h = 0.2."""
    key = ("symmetries",)
    if key not in grid._cache:
        grid._cache[key] = np.stack(_kept_symmetries(grid))
    return grid._cache[key]


def _kept_symmetries(grid):
    """The permutations of lattice_symmetries, as a list: the arrays this
    search builds are freed before they are stacked."""
    diagonals = [direction_thetas(grid, v)[:, None, :]
                 for v in _symmetry_directions(grid.n)[2 * grid.n:]]
    theta = grid.theta_axis
    if diagonals:
        theta = np.concatenate([theta, *diagonals], axis=1)
    # a map of the interior node set onto itself that maps these rows'
    # fractions onto their images maps the rows onto each other; every
    # other fraction is 1
    flat = theta.reshape(grid.num_interior, -1)
    cut = flat[:, 0] != 1.0
    for column in flat.T[1:]:  # a loop over columns beats np.any(axis=1) here
        cut |= column != 1.0
    rows = np.flatnonzero(cut)
    pos = grid.interior_pos.reshape(grid.shape)
    # each lattice index of the interior nodes, and its mirror image
    nodes = np.unravel_index(grid.interior_flat, grid.shape)
    mirrored = [k - 1 - index for k, index in zip(grid.shape, nodes)]
    # most candidates that rounding rejects fail on a few rows: test a
    # sample of them before building the whole permutation
    sample = rows[::max(1, rows.size // 64)]

    def image(axes, signs, at):
        return pos[tuple((nodes if s > 0 else mirrored)[a][at] for a, s in zip(axes, signs))]

    kept = []
    for axes, signs, tau, sides in _symmetry_candidates(grid.n):
        if any(grid.shape[b] != grid.shape[a] for b, a in enumerate(axes)):
            continue
        probe = image(axes, signs, sample)
        if np.any(probe < 0) or not np.array_equal(theta[probe][:, tau, sides], theta[sample]):
            continue
        perm = image(axes, signs, slice(None))
        if np.all(perm >= 0) and np.array_equal(theta[perm[rows]][:, tau, sides], theta[rows]):
            kept.append(perm)
    return kept


@functools.lru_cache(maxsize=None)
def _lattice_strides(shape):
    return tuple(int(np.prod(shape[a + 1 :], dtype=np.int64)) for a in range(len(shape)))


def build_grid(spec, h):
    """Discretize the domain with uniform spacing h.

    The lattice is anchored at the bounding-box center and padded by two cells
    per side so that every stencil has lattice neighbours.  A node is interior
    when rho < -rho_band, with the boundary band rho_band = 1e-12 * max |rho|
    over the lattice (_RHO_BAND): a node on the zero set, where rounding
    gives rho of either sign, is a boundary node, so no crossing fraction is
    clamped at such a node and rho stays strictly PSH at every interior one.
    The band scales with rho, so multiplying rho by a constant or scaling
    domain and h together keeps the node set.  Emits a warning
    when h exceeds a quarter of the domain's smallest extent (coarse but still
    buildable); raises EmptyInterior / ResolutionTooCoarse when the interior is
    empty or disconnected, and ValueError when interior nodes lie within two
    layers of the lattice edge (a CustomRho box that does not enclose the
    domain).  Cell weights come from rho on the lattice (_cell_volumes).
    """
    h = float(h)
    if not h > 0:
        raise ValueError("h must be positive")
    box = _bounding_box(spec)
    d = box.shape[0]
    n = d // 2
    half = 0.5 * (box[:, 1] - box[:, 0])
    if h > 0.25 * float(np.min(half)):
        warnings.warn(
            f"h={h} exceeds a quarter of the smallest domain half-extent; "
            "boundary resolution will be crude",
            stacklevel=2,
        )
    center = 0.5 * (box[:, 0] + box[:, 1])
    K = np.ceil(half / h).astype(int) + 2
    shape = tuple(int(2 * k + 1) for k in K)
    lo = center - K * h

    axes = [lo[a] + h * np.arange(shape[a]) for a in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    rho_all = eval_rho(spec, pts)
    rho_band = _RHO_BAND * float(np.max(np.abs(rho_all)))
    interior_mask = (rho_all < -rho_band).reshape(shape)
    if not interior_mask.any():
        raise EmptyInterior("no lattice node with rho below the boundary band at this spacing")
    # Stencils and cell weights read the axis neighbours of interior and
    # boundary nodes through flat offsets, which wrap at the lattice edge:
    # keep two layers between the interior and the edge, as the padding does
    # for a box that encloses the domain.
    for a in range(d):
        if np.take(interior_mask, [0, 1, -2, -1], axis=a).any():
            raise ValueError(
                f"the bounding box {tuple(tuple(float(v) for v in row) for row in box)} does "
                f"not enclose the domain: interior nodes lie within two layers of the "
                f"lattice edge along axis {a}"
            )

    structure = ndimage.generate_binary_structure(d, 1)
    _, ncomp = ndimage.label(interior_mask, structure=structure)
    if ncomp != 1:
        raise ResolutionTooCoarse(
            f"interior splits into {ncomp} face-connected components at h={h}"
        )

    classification = np.full(shape, EXTERIOR, dtype=np.int8)
    classification[interior_mask] = INTERIOR
    # boundary: the non-interior axis neighbours of interior nodes
    classification[ndimage.binary_dilation(interior_mask, structure) & ~interior_mask] = BOUNDARY

    flat_class = classification.ravel()
    interior_flat = np.flatnonzero(flat_class == INTERIOR).astype(np.int64)
    boundary_flat = np.flatnonzero(flat_class == BOUNDARY).astype(np.int64)
    N = interior_flat.size
    interior_pos = np.full(flat_class.size, -1, dtype=np.int64)
    interior_pos[interior_flat] = np.arange(N)

    strides = np.array(_lattice_strides(shape), dtype=np.int64)
    coords = pts[interior_flat]
    rho_int = rho_all[interior_flat]

    offsets = np.stack([strides, -strides], axis=1)  # (2n, 2): +/- each axis
    nbr_ipos = interior_pos[interior_flat[:, None, None] + offsets]

    theta = np.ones((N, d, 2))
    i, a, s = np.nonzero(nbr_ipos < 0)
    directions = np.eye(d)[a] * np.where(s == 0, 1.0, -1.0)[:, None]
    theta[i, a, s] = _crossing_fractions(spec, coords[i], directions, h)

    cell_volume = _cell_volumes(rho_all, interior_flat, strides, h)
    # Cells centered at boundary nodes still contain a sliver of the domain;
    # hand each sliver to the adjacent interior nodes so that the interior
    # quadrature weights partition (the plane-cut estimate of) the full
    # volume.  np.add.at adds the shares in boundary-node order, so each
    # weight rounds exactly as in a loop over the boundary nodes.
    if boundary_flat.size:
        bvols = _cell_volumes(rho_all, boundary_flat, strides, h)
        owners = interior_pos[boundary_flat[:, None] + np.concatenate([strides, -strides])]
        valid = owners >= 0
        share = bvols / np.count_nonzero(valid, axis=1)
        take = valid & (bvols != 0.0)[:, None]
        np.add.at(cell_volume, owners[take], np.broadcast_to(share[:, None], owners.shape)[take])

    return GridDomain(
        spec=spec,
        n=n,
        h=h,
        lo=lo,
        shape=shape,
        classification=flat_class,
        interior_flat=interior_flat,
        boundary_flat=boundary_flat,
        interior_pos=interior_pos,
        interior_coords=coords,
        rho_interior=rho_int,
        rho_band=rho_band,
        nbr_ipos=nbr_ipos,
        theta_axis=theta,
        cell_volume=cell_volume,
    )


def _cell_volumes(rho_all, flat, strides, h):
    """Volume of the domain in the cell of side h centred at each lattice node
    of flat, from rho_all, rho over the whole lattice (C-order flat).

    rho at the node and at its axis neighbours (flat +/- strides) gives the
    central-difference gradient g, h g_a = (rho_{+a} - rho_{-a}) / 2, and the
    cell mean of rho, rho_c + sum_a (rho_{+a} + rho_{-a} - 2 rho_c) / 24,
    which is exact for quadratic rho.  The weight is h^d times the share of
    the cell where that mean plus h g . y is <= 0 (_plane_fraction): h^d when
    the plane is <= 0 on the whole cell, 0 when it is >= 0 on it, and the
    vertex sum only for the cells it cuts.  The tangent plane at the node
    (rho_c in place of the mean) would leave out the cell mean of rho's
    quadratic part, an O(h^2) bias in every cut cell: a total-volume error
    of 1.0e-5 relative on the unit disc at h = 1/128, against 2.1e-7."""
    rho = rho_all[flat]
    curvature = np.zeros(flat.size)
    spread = np.zeros(flat.size)  # becomes half of sum_a |h g_a|
    for s in strides:
        up, down = rho_all[flat + s], rho_all[flat - s]
        curvature += (up + down) - 2.0 * rho
        spread += np.abs(up - down)
    mean = rho + curvature / 24.0
    spread *= 0.25
    full = h ** len(strides)
    vols = np.where(mean + spread <= 0.0, full, 0.0)
    cut = np.flatnonzero(np.abs(mean) < spread)
    if cut.size:
        at = flat[cut]
        grad = np.stack([rho_all[at + s] - rho_all[at - s] for s in strides], axis=1)
        vols[cut] = full * _plane_fraction(mean[cut], 0.5 * grad)
    return vols


def _plane_fraction(mean, grad):
    """Share of the cube [-1/2, 1/2]^d where mean + grad . y <= 0, one per row
    of mean (m,) and grad (m, d).

    With x = y + 1/2 and a = |grad| (flipping the axes where grad < 0) the
    set is a . x <= b = sum(a) / 2 - mean on the unit cube, whose volume is
    the cube-section vertex sum (Barrow & Smith, Amer. Math. Monthly 86,
    1979) over the k components of a that are > 0:
        sum_{v in {0,1}^k} (-1)^{|v|} max(b - a . v, 0)^k / (k! prod(a)).
    Components below _PLANE_DROP * sum(a) are set to 0 first.  The sum runs
    on the smaller side, b <= sum(a) / 2 (the larger is 1 minus it), and on
    the kept components in descending order, so the result depends on grad
    only through its multiset of |grad|: a signed permutation of the axes
    leaves it unchanged bit for bit."""
    a = np.abs(grad)
    m, d = a.shape
    a[a < _PLANE_DROP * np.sum(a, axis=1, keepdims=True)] = 0.0
    a = -np.sort(-a, axis=1)
    total = np.sum(a, axis=1)
    b = 0.5 * total - mean
    larger = b >= 0.5 * total
    b = np.where(larger, total - b, b)
    kept = np.count_nonzero(a, axis=1)
    smaller = np.zeros(m)
    for k in range(1, d + 1):
        rows = np.flatnonzero((kept == k) & (b > 0.0))
        if not rows.size:
            continue
        A = a[rows, :k]
        vertices = np.array(list(itertools.product((0.0, 1.0), repeat=k)))  # (2^k, k)
        signs = np.where(np.sum(vertices, axis=1) % 2 == 0, 1.0, -1.0)
        reach = np.maximum(b[rows, None] - np.sum(A[:, None, :] * vertices, axis=2), 0.0)
        smaller[rows] = (np.sum(reach ** k * signs, axis=1)
                         / (math.factorial(k) * np.prod(A, axis=1)))
    return np.clip(np.where(larger, 1.0 - smaller, smaller), 0.0, 1.0)
