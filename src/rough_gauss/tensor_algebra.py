"""Truncated step-3 tensor algebra over R^d and the free nilpotent group.

Elements live in T3(R^d) = R + R^d + (R^d)^2 + (R^d)^3 with the tensor
product truncated beyond level 3.  Group-like elements (unit scalar part,
shuffle relations) form the step-3 free nilpotent group; their logarithms
form the step-3 free Lie algebra, coordinatized on a Hall basis.

Level arrays store the word axes first and any batch axes last
(level3[i, j, k, *batch]), so large ensembles of elements are processed
with vectorized numpy arithmetic whose inner loops run over the batch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TruncatedTensor",
    "GroupElement",
    "LieElement",
    "zero_tensor",
    "unit_tensor",
    "identity_element",
    "tensor_mul",
    "tensor_scale",
    "group_inverse",
    "exp_trunc",
    "log_trunc",
    "dilate",
    "homogeneous_norm",
    "cc_distance",
    "shuffle_residual",
    "is_group_like",
    "hall_pairs",
    "hall_triples",
    "lie_dim",
    "hall_basis_labels",
    "lie_to_tensor",
    "hall_log_signature",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TruncatedTensor:
    """Element of the degree-3 truncated tensor algebra.

    ``level0`` has the batch shape, and ``level1``, ``level2`` and
    ``level3`` prepend (d,), (d, d) and (d, d, d) word axes to it:
    level2[i, j, *batch] is the coefficient of the word ij.  Instances are
    immutable; the arrays are marked read-only at construction.
    """

    dim: int
    level0: np.ndarray
    level1: np.ndarray
    level2: np.ndarray
    level3: np.ndarray

    def __post_init__(self):
        d = int(self.dim)
        if d < 1:
            raise ValueError("dim must be >= 1")
        l0 = _freeze(self.level0)
        l1 = _freeze(self.level1)
        l2 = _freeze(self.level2)
        l3 = _freeze(self.level3)
        batch = l0.shape
        if l1.shape != (d,) + batch or l2.shape != (d, d) + batch or l3.shape != (d, d, d) + batch:
            raise ValueError("level array extents inconsistent with dim/batch")
        for a in (l0, l1, l2, l3):
            if not np.all(np.isfinite(a)):
                raise ValueError("non-finite entry in tensor levels")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "level0", l0)
        object.__setattr__(self, "level1", l1)
        object.__setattr__(self, "level2", l2)
        object.__setattr__(self, "level3", l3)

    @property
    def batch_shape(self) -> tuple:
        return self.level0.shape

    def levels(self):
        return self.level0, self.level1, self.level2, self.level3


@dataclass(frozen=True)
class GroupElement:
    """Group-like element of T3: scalar part exactly 1.

    Shuffle relations are not re-validated on every construction (products
    of group elements satisfy them automatically); use
    :func:`shuffle_residual` / :func:`is_group_like` to check inputs of
    unknown provenance.
    """

    tensor: TruncatedTensor

    def __post_init__(self):
        if not np.all(self.tensor.level0 == 1.0):
            raise ValueError("group element must have unit scalar part")

    @property
    def dim(self) -> int:
        return self.tensor.dim

    @property
    def batch_shape(self) -> tuple:
        return self.tensor.batch_shape


def zero_tensor(dim: int) -> TruncatedTensor:
    d = int(dim)
    return TruncatedTensor(d, np.zeros(()), np.zeros(d), np.zeros((d, d)), np.zeros((d, d, d)))


def unit_tensor(dim: int, batch: tuple = ()) -> TruncatedTensor:
    d = int(dim)
    return TruncatedTensor(
        d,
        np.ones(batch),
        np.zeros((d,) + batch),
        np.zeros((d, d) + batch),
        np.zeros((d, d, d) + batch),
    )


def identity_element(dim: int, batch: tuple = ()) -> GroupElement:
    return GroupElement(unit_tensor(dim, batch))


def _as_tensor(x) -> TruncatedTensor:
    if isinstance(x, GroupElement):
        return x.tensor
    if isinstance(x, LieElement):
        return lie_to_tensor(x)
    if isinstance(x, TruncatedTensor):
        return x
    raise TypeError(f"expected tensor-like value, got {type(x).__name__}")


def _check_unit(x, what: str) -> TruncatedTensor:
    t = _as_tensor(x)
    if not np.all(t.level0 == 1.0):
        raise ValueError(f"{what} requires unit scalar part")
    return t


# Raw kernels: level tuples (l0, l1, l2, l3) in the layout of
# TruncatedTensor, so numpy's inner loops run over the batch rather than
# over d, d^2 or d^3 words.  No validation.  The public functions below
# check their inputs, call one of these on t.levels() and wrap the result
# in a validated dataclass once.


def _pad(levels, ndim: int):
    """Levels with length-1 batch axes inserted after the word axes up to
    ``ndim`` batch axes, so operands of different batch rank broadcast
    against each other batch axis by batch axis."""
    pad = (None,) * (ndim - np.ndim(levels[0]))
    return tuple(a[(slice(None),) * k + pad] for k, a in enumerate(levels))


def _mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    l0 = a0 * b0
    l1 = a0 * b1
    l1 += a1 * b0
    l2 = a0 * b2
    l2 += a1[:, None] * b1[None, :]
    l2 += a2 * b0
    l3 = a0 * b3
    l3 += a1[:, None, None] * b2[None, :, :]
    l3 += a2[:, :, None] * b1[None, None, :]
    l3 += a3 * b0
    return l0, l1, l2, l3


def _gmul(a, b, depth=3):
    """_mul of two unit-scalar (group) level tuples without the products by
    their scalar parts.  x * 1.0 == x and IEEE addition commutes, so each
    level is the same sum as in _mul, bit for bit.

    Only levels 0..depth are formed and read: level k of a product reads
    levels <= k of its factors, so depth 2 gives the bytes of levels 0-2 of
    depth 3."""
    a1, a2 = a[1], a[2]
    b1, b2 = b[1], b[2]
    l1 = b1 + a1
    l2 = a1[:, None] * b1[None, :]
    l2 += b2
    l2 += a2
    if depth < 3:
        return np.ones(l1.shape[1:]), l1, l2
    l3 = a1[:, None, None] * b2[None, :, :]
    l3 += b[3]
    l3 += a2[:, :, None] * b1[None, None, :]
    l3 += a[3]
    return np.ones(l1.shape[1:]), l1, l2, l3


def _powers(x1: np.ndarray, x2: np.ndarray):
    """Truncated powers of x = x1 + x2 + x3 (no scalar part): x^2 has level
    2 part sq2 and level 3 part sq3, x^3 has level 3 part cube3 = sq2 (x) x1."""
    sq2 = x1[:, None] * x1[None, :]
    cube3 = sq2[:, :, None] * x1[None, None, :]
    sq3 = x1[:, None, None] * x2[None, :, :]
    sq3 += x2[:, :, None] * x1[None, None, :]
    return sq2, sq3, cube3


def _inverse_tail(x1, x2, x3):
    """Levels 2 and 3 of the inverse of 1 + x1 + x2 + x3."""
    sq2, sq3, cube3 = _powers(x1, x2)
    sq2 -= x2
    sq3 -= x3
    sq3 -= cube3
    return sq2, sq3


def _inverse(g):
    l0, x1, x2, x3 = g
    return (np.ones(np.shape(l0)), -x1) + _inverse_tail(x1, x2, x3)


def _series(x, scalar: float, c2: float, d3: float):
    """Levels of scalar + y + c2 y^2 + y^3 / d3 for the tail y = x1 + x2 + x3
    of x's levels, whose scalar part only sets the batch shape: exp takes
    (1, 1/2, 6) and log(1 + y) takes (0, -1/2, 3)."""
    l0, x1, x2, x3 = x
    sq2, sq3, cube3 = _powers(x1, x2)
    sq2 *= c2
    sq2 += x2
    sq3 *= c2
    sq3 += x3
    cube3 /= d3
    sq3 += cube3
    return np.full(np.shape(l0), scalar), x1, sq2, sq3


def _exp(x):
    return _series(x, 1.0, 0.5, 6.0)


def _log(g):
    return _series(g, 0.0, -0.5, 3.0)


def _exp_segment(dx, depth=3):
    """_exp((0, dx, 0, 0)) without the sums with its zero levels, which
    change only the sign of a zero entry.  Only levels 0..depth are formed."""
    sq2 = dx[:, None] * dx[None, :]
    levels = (np.ones(dx.shape[1:]), dx, sq2)
    if depth > 2:
        cube3 = sq2[:, :, None] * dx[None, None, :]
        cube3 /= 6.0
        levels += (cube3,)
    sq2 *= 0.5
    return levels


# a sum of squares below this may have lost bits to the subnormal range
_FRO_TINY = 2.0**-960


def _fro(a, k: int):
    """Frobenius norm over the k leading word axes of a.  The squares are
    summed word after word, so an element alone gives the bits it gets in a
    batch.  Elements whose sum of squares is below _FRO_TINY or overflows
    are summed again after scaling by their max-abs entry, as LAPACK dnrm2
    does; the others, and all-zero elements, keep the plain sum."""
    a = np.reshape(a, (int(np.prod(np.shape(a)[:k])),) + np.shape(a)[k:])
    with np.errstate(over="ignore"):  # overflowing sums are redone below
        ss = functools.reduce(np.add, a**2)
    if _FRO_TINY <= ss.min(initial=np.inf) and ss.max(initial=0.0) < np.inf:
        return np.sqrt(ss)
    out = np.sqrt(ss).reshape(-1)
    a = a.reshape(len(a), -1)
    redo = np.flatnonzero(~((ss >= _FRO_TINY) & (ss < np.inf)))
    m = np.max(np.abs(a[:, redo]), axis=0)
    # m is 0 for all-zero elements and inf or nan for non-finite entries
    keep = np.isfinite(m) & (m > 0.0)
    redo, m = redo[keep], m[keep]
    out[redo] = m * np.sqrt(functools.reduce(np.add, (a[:, redo] / m) ** 2))
    return out.reshape(np.shape(ss))[()]


def _level_fro(t):
    return tuple(_fro(a, k) for k, a in enumerate(t[1:], start=1))


def _one_sided(g):
    n1, n2, n3 = _level_fro(g)
    return np.maximum(n1, np.maximum(n2 ** 0.5, n3 ** (1.0 / 3.0)))


def _two_sided(g):
    # level 1 of g^-1 is -x1; the roots are monotone, so they commute with max
    n1, n2, n3 = _level_fro(g)
    y2, y3 = _inverse_tail(*g[1:])
    return np.maximum(n1, np.maximum(np.maximum(n2, _fro(y2, 2)) ** 0.5,
                                     np.maximum(n3, _fro(y3, 3)) ** (1.0 / 3.0)))


# below this homogeneous norm a level-3 norm, or a product in _inverse, may
# have lost bits to the subnormal range before the cube root
_NORM_TINY = 2.0**-340


def _rescued(raw, g):
    """raw(g), taken again where it is below _NORM_TINY: the norm is
    homogeneous, so take it of the dilation by the power of two 2^e that
    brings it near 1, which scales every entry exactly, and scale back."""
    out = raw(g)
    tiny = (out > 0.0) & (out < _NORM_TINY)
    if np.any(tiny):
        out = np.array(out)
        e = -np.frexp(out[tiny])[1]
        lifted = tuple(np.ldexp(a[..., tiny], k * e) for k, a in enumerate(g[1:], start=1))
        out[tiny] = np.ldexp(_rescued(raw, (np.ones(e.shape),) + lifted), -e)
        out = out[()]
    return out


def _norm(g):
    """max(|pi1|, |pi2|^(1/2), |pi3|^(1/3)) of g's own levels.  For a
    group-like g the antipode permutes and negates the entries of each
    level, so this equals the norm of g^-1."""
    return _rescued(_one_sided, g)


def _dist_norm(g):
    """The norm symmetrized over g and g^-1, for distances ||g^-1 (x) h||:
    roundoff leaves a product only nearly group-like."""
    return _rescued(_two_sided, g)


def _shuffle_residual(g):
    _, x1, x2, x3 = g
    sym2 = 0.5 * (x2 + np.swapaxes(x2, 0, 1))
    half_sq = 0.5 * np.einsum("i...,j...->ij...", x1, x1)
    r2 = _fro(sym2 - half_sq, 2)
    lhs3 = np.einsum("i...,jk...->ijk...", x1, x2)
    rhs3 = (
        x3
        + np.einsum("jik...->ijk...", x3)
        + np.einsum("jki...->ijk...", x3)
    )
    r3 = _fro(lhs3 - rhs3, 3)
    nrm = np.maximum(_norm(g), 1.0)
    return r2 / nrm**2 + r3 / nrm**3


def tensor_mul(a, b) -> TruncatedTensor | GroupElement:
    """Truncated tensor product a (x) b; drops everything beyond level 3.

    Batch shapes broadcast against each other.  Returns a GroupElement when
    both factors are group elements (the group is closed under the product).
    """
    wrap = isinstance(a, GroupElement) and isinstance(b, GroupElement)
    ta, tb = _as_tensor(a), _as_tensor(b)
    if ta.dim != tb.dim:
        raise ValueError("dimension mismatch in tensor product")
    ndim = max(len(ta.batch_shape), len(tb.batch_shape))
    levels = _pad(ta.levels(), ndim), _pad(tb.levels(), ndim)
    if wrap:
        return GroupElement(TruncatedTensor(ta.dim, *_gmul(*levels)))
    return TruncatedTensor(ta.dim, *_mul(*levels))


def tensor_scale(c, a) -> TruncatedTensor:
    ta = _as_tensor(a)
    c = np.asarray(c, dtype=float)
    levels = _pad(ta.levels(), max(c.ndim, len(ta.batch_shape)))
    return TruncatedTensor(ta.dim, *(c * a for a in levels))


def group_inverse(g: GroupElement) -> GroupElement:
    """Inverse in the truncated algebra: for g = 1 + x the Neumann series
    1 - x + x^2 - x^3 terminates exactly at step 3."""
    t = _check_unit(g, "inverse")
    return GroupElement(TruncatedTensor(t.dim, *_inverse(t.levels())))


def exp_trunc(x) -> GroupElement:
    """exp truncated at degree 3: 1 + x + x^2/2 + x^3/6 (zero scalar input)."""
    t = _as_tensor(x)
    if not np.all(t.level0 == 0.0):
        raise ValueError("exp requires zero scalar part")
    return GroupElement(TruncatedTensor(t.dim, *_exp(t.levels())))


def log_trunc(g) -> TruncatedTensor:
    """log power series truncated at degree 3: x - x^2/2 + x^3/3, x = g - 1."""
    t = _check_unit(g, "log")
    return TruncatedTensor(t.dim, *_log(t.levels()))


def dilate(lam, g: GroupElement) -> GroupElement:
    """Dilation: multiplies level i by lam^i.  lam may be batched; its shape
    broadcasts against the element's batch shape and has no more axes."""
    t = _as_tensor(g)
    lam = np.asarray(lam, dtype=float)
    if lam.ndim > len(t.batch_shape):
        raise ValueError(f"lam of shape {lam.shape} has more axes than the "
                         f"batch shape {t.batch_shape}")
    _, l1, l2, l3 = t.levels()
    return GroupElement(TruncatedTensor(t.dim, t.level0, lam * l1, lam**2 * l2, lam**3 * l3))


def homogeneous_norm(g: GroupElement):
    """max(|pi1|, |pi2|^(1/2), |pi3|^(1/3)) with Frobenius level norms,
    one-sided: it reads g's own levels only.  For a group-like g the
    inverse is the antipode, a signed permutation of each level's entries,
    so ||g|| = ||g^-1|| holds without taking the inverse.

    Homogeneous under dilation and subadditive: ||g (x) h|| <= ||g|| + ||h||.
    Returns an array over the batch shape (a numpy scalar for a single
    element).
    """
    return _norm(g.tensor.levels())


def cc_distance(g: GroupElement, h: GroupElement):
    """Homogeneous distance ||g^-1 (x) h||: an array over the broadcast
    batch shape (a numpy scalar for two single elements)."""
    if g.dim != h.dim:
        raise ValueError("dimension mismatch")
    ndim = max(len(g.batch_shape), len(h.batch_shape))
    return _dist_norm(_gmul(_inverse(_pad(g.tensor.levels(), ndim)), _pad(h.tensor.levels(), ndim)))


def shuffle_residual(g: GroupElement):
    """Relative size of the group-like (shuffle) defects.

    Checks sym(pi2) = 1/2 pi1 (x) pi1 and, for all i,j,k,
    pi1^i pi2^(j,k) = pi3^(i,j,k) + pi3^(j,i,k) + pi3^(j,k,i).
    Residuals are scaled by max(1, ||g||)^level so the measure is
    dilation-insensitive for large elements and absolute for small ones.
    """
    return _shuffle_residual(g.tensor.levels())


# shuffle residual up to which an element counts as group-like
_SHUFFLE_TOL = 1e-10


def is_group_like(g: GroupElement) -> bool:
    return bool(np.all(shuffle_residual(g) <= _SHUFFLE_TOL))


# ---------------------------------------------------------------------------
# Hall basis and Lie elements


@functools.lru_cache(maxsize=None)
def hall_pairs(d: int) -> tuple:
    """Level-2 basis index pairs (i, j) with i < j, for [e_i, e_j]."""
    return tuple((i, j) for i in range(d) for j in range(i + 1, d))


@functools.lru_cache(maxsize=None)
def hall_triples(d: int) -> tuple:
    """Level-3 basis index triples (i, j, k) with j < k and j <= i.

    (i, j, k) stands for [e_i, [e_j, e_k]]; the cases i = j and i = k are
    the repeated-letter words.  Count per d is (d^3 - d)/3.
    """
    return tuple(
        (i, j, k)
        for j in range(d)
        for k in range(j + 1, d)
        for i in range(j, d)
    )


def lie_dim(d: int) -> int:
    return d + d * (d - 1) // 2 + (d**3 - d) // 3


def hall_basis_labels(d: int) -> list:
    labels = [f"{i+1}" for i in range(d)]
    labels += [f"[{i+1},{j+1}]" for i, j in hall_pairs(d)]
    labels += [f"[{i+1},[{j+1},{k+1}]]" for i, j, k in hall_triples(d)]
    return labels


@dataclass(frozen=True)
class LieElement:
    """Element of the step-3 free Lie algebra in Hall coordinates.

    ``coords`` concatenates [level-1 (d); level-2 pairs; level-3 triples]
    along the last axis, with the index sets from :func:`hall_pairs` and
    :func:`hall_triples`.  Leading axes are batch.
    """

    dim: int
    coords: np.ndarray

    def __post_init__(self):
        c = _freeze(self.coords)
        if c.shape[-1] != lie_dim(self.dim):
            raise ValueError(
                f"expected {lie_dim(self.dim)} hall coordinates, got {c.shape[-1]}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite hall coordinate")
        object.__setattr__(self, "coords", c)

    @property
    def batch_shape(self) -> tuple:
        return self.coords.shape[:-1]

    def split(self):
        d = self.dim
        n1, n2 = d, len(hall_pairs(d))
        return (
            self.coords[..., :n1],
            self.coords[..., n1 : n1 + n2],
            self.coords[..., n1 + n2 :],
        )


def lie_to_tensor(l: LieElement) -> TruncatedTensor:
    """The Hall words written out in word-first zero levels:
    [e_i,e_j] = ij - ji and [e_i,[e_j,e_k]] = ijk - ikj - jki + kji."""
    d = l.dim
    c1, c2, c3 = l.split()
    batch = l.batch_shape
    t2 = np.zeros((d, d) + batch)
    for r, (i, j) in enumerate(hall_pairs(d)):
        t2[i, j] += c2[..., r]
        t2[j, i] -= c2[..., r]
    t3 = np.zeros((d, d, d) + batch)
    for r, (i, j, k) in enumerate(hall_triples(d)):
        c = c3[..., r]
        t3[i, j, k] += c
        t3[i, k, j] -= c
        t3[j, k, i] -= c
        t3[k, j, i] += c
    return TruncatedTensor(d, np.zeros(batch), np.moveaxis(c1, -1, 0), t2, t3)


def _stack(columns, batch: tuple) -> np.ndarray:
    """The columns, arrays of the batch shape, as the last axis of one
    array; no columns give a (*batch, 0) array."""
    out = np.empty(batch + (len(columns),))
    for r, c in enumerate(columns):
        out[..., r] = c
    return out


def _hall_columns(d: int, repeated, generic) -> list:
    """One coordinate per Hall triple (i, j, k) of hall_triples(d):
    repeated(i, k) for i = j, -repeated(i, j) for i = k, since
    [e_k,[e_j,e_k]] = -[e_k,[e_k,e_j]], and generic(i, j, k) otherwise."""
    return [repeated(i, k) if i == j else -repeated(i, j) if i == k else generic(i, j, k)
            for i, j, k in hall_triples(d)]


def hall_log_signature(sig: GroupElement) -> LieElement:
    """Closed-form Hall coordinates of log(sig) straight from signature
    entries (no power series):

      level 1:  X^i
      level 2:  1/2 (X^(i,j) - X^(j,i))                      on [e_i,e_j], i<j
      level 3:  1/6 (X^(ijk) + X^(jik) - 2 X^(ikj)
                     + X^(kij) - 2 X^(jki) + X^(kji))        on [e_i,[e_j,e_k]]
                X^(iij) + 1/12 (X^i)^2 X^j - 1/2 X^i X^(ij)  on [e_i,[e_i,e_j]]

    Inputs failing the shuffle check of :func:`is_group_like` are rejected.
    """
    res = shuffle_residual(sig)
    if not np.all(res <= _SHUFFLE_TOL):
        raise ValueError(
            f"input is not group-like (shuffle residual {float(np.max(res)):.3e} > {_SHUFFLE_TOL:g})"
        )
    t = sig.tensor
    d = t.dim
    x1, x2, x3 = t.level1, t.level2, t.level3
    c1 = np.moveaxis(x1, 0, -1)
    c2 = _stack([0.5 * (x2[i, j] - x2[j, i]) for i, j in hall_pairs(d)], t.batch_shape)
    c3 = _stack(_hall_columns(
        d, lambda i, j: x3[i, i, j] + x1[i] ** 2 * x1[j] / 12.0 - 0.5 * x1[i] * x2[i, j],
        lambda i, j, k: (x3[i, j, k] + x3[j, i, k] - 2.0 * x3[i, k, j]
                         + x3[k, i, j] - 2.0 * x3[j, k, i] + x3[k, j, i]) / 6.0), t.batch_shape)
    return LieElement(d, np.concatenate([c1, c2, c3], axis=-1))
