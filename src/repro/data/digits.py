"""Procedural 28x28 handwritten-digit renderer.

Each digit class is described by a stroke skeleton (a set of polylines
in the unit square, ellipse arcs included).  Rendering:

1. apply a random affine transform to the skeleton (rotation, scale,
   shear, translation) — per-sample handwriting variation;
2. rasterise with an anti-aliased distance-to-segment pen of randomised
   width;
3. add mild blur and pixel noise.

The result is MNIST-like in format (float images in [0, 1], centred
28x28 glyphs) and difficulty class (linear models plateau well below
MLPs, MLPs reach the high 90s).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError

IMAGE_SIZE = 28

# ---------------------------------------------------------------------------
# Stroke skeletons, coordinates in [0, 1]^2, y growing downwards.
# ---------------------------------------------------------------------------


def _arc(cx: float, cy: float, rx: float, ry: float, a0: float, a1: float,
         n: int = 14) -> np.ndarray:
    """Elliptic arc polyline from angle ``a0`` to ``a1`` (radians)."""
    t = np.linspace(a0, a1, n)
    return np.stack([cx + rx * np.cos(t), cy + ry * np.sin(t)], axis=1)


def _line(x0: float, y0: float, x1: float, y1: float) -> np.ndarray:
    return np.array([[x0, y0], [x1, y1]])


def _digit_skeleton(digit: int) -> list[np.ndarray]:
    """Polylines making up one digit glyph."""
    if digit == 0:
        return [_arc(0.5, 0.5, 0.26, 0.36, 0.0, 2.0 * math.pi, 24)]
    if digit == 1:
        return [_line(0.38, 0.28, 0.54, 0.14), _line(0.54, 0.14, 0.54, 0.86)]
    if digit == 2:
        return [
            _arc(0.5, 0.32, 0.24, 0.20, math.pi, 2.35 * math.pi, 12),
            _line(0.70, 0.44, 0.28, 0.84),
            _line(0.28, 0.84, 0.74, 0.84),
        ]
    if digit == 3:
        return [
            _arc(0.46, 0.32, 0.24, 0.19, 1.25 * math.pi, 2.6 * math.pi, 12),
            _arc(0.46, 0.67, 0.26, 0.20, 1.45 * math.pi, 2.85 * math.pi, 12),
        ]
    if digit == 4:
        return [
            _line(0.62, 0.14, 0.26, 0.60),
            _line(0.26, 0.60, 0.78, 0.60),
            _line(0.62, 0.14, 0.62, 0.86),
        ]
    if digit == 5:
        return [
            _line(0.70, 0.16, 0.34, 0.16),
            _line(0.34, 0.16, 0.32, 0.46),
            _arc(0.49, 0.64, 0.24, 0.21, 1.30 * math.pi, 2.80 * math.pi, 14),
        ]
    if digit == 6:
        return [
            _arc(0.58, 0.30, 0.26, 0.26, 1.05 * math.pi, 1.75 * math.pi, 10),
            _arc(0.48, 0.64, 0.22, 0.22, 0.0, 2.0 * math.pi, 20),
        ]
    if digit == 7:
        return [
            _line(0.26, 0.16, 0.74, 0.16),
            _line(0.74, 0.16, 0.42, 0.86),
        ]
    if digit == 8:
        return [
            _arc(0.5, 0.32, 0.20, 0.17, 0.0, 2.0 * math.pi, 18),
            _arc(0.5, 0.68, 0.24, 0.19, 0.0, 2.0 * math.pi, 18),
        ]
    if digit == 9:
        return [
            _arc(0.52, 0.35, 0.22, 0.21, 0.0, 2.0 * math.pi, 20),
            _line(0.73, 0.38, 0.60, 0.86),
        ]
    raise ConfigurationError(f"digit must be 0..9, got {digit}")


def _glyph(digit: int) -> tuple[np.ndarray, np.ndarray]:
    """One glyph's skeleton points, centred on 0, and its segment starts.

    Segment ``k`` runs from point ``starts[k]`` to point
    ``starts[k] + 1``; no segment joins two polylines.  The shortest
    segment is 0.06 long, and the jitter in :func:`render_digit` never
    shrinks a length below 0.46 of itself, so no segment reaches the
    rasteriser with zero length.
    """
    polylines = _digit_skeleton(digit)
    points = np.concatenate(polylines) - 0.5
    ends = np.cumsum([len(p) for p in polylines])
    starts = np.concatenate([np.arange(end - len(p), end - 1)
                             for p, end in zip(polylines, ends)])
    return points, starts


_GLYPHS = {d: _glyph(d) for d in range(10)}


# ---------------------------------------------------------------------------
# Rasterisation.
# ---------------------------------------------------------------------------

_LAST = IMAGE_SIZE - 1


def _ink(a: np.ndarray, b: np.ndarray, pen: float) -> np.ndarray:
    """Anti-aliased pen strokes along segments ``a[k]``-``b[k]`` (pixels).

    Each pixel takes ``clip(1 + pen - dist, 0, 1)`` for the segment
    nearest to it, ``dist`` being the exact distance.  A segment visits
    only the pixels within ``reach = 2 + pen`` of its bounding box, and
    measures ``dist`` only where the squared distance is below
    ``reach**2``.  Every pixel it skips lies a whole pixel beyond the
    pen's edge (``1 + pen``), where the ink is exactly 0.  Segments must
    have positive length.
    """
    ab = b - a
    # Each segment's ``ab @ ab``, summed by the same matmul loop (BLAS's
    # dot) as the per-segment form the images were made with;
    # ``abx*abx + aby*aby`` rounds differently.
    denom = (ab[:, None, :] @ ab[:, :, None]).ravel()
    reach = 2.0 + pen
    lo = np.clip(np.ceil(np.minimum(a, b) - reach), 0, _LAST).astype(np.intp)
    hi = np.clip(np.floor(np.maximum(a, b) + reach), 0, _LAST).astype(np.intp)
    width = hi[:, 0] - lo[:, 0] + 1
    count = width * (hi[:, 1] - lo[:, 1] + 1)
    # One (segment, pixel) pair per pixel of each segment's window.
    seg = np.repeat(np.arange(len(count)), count)
    row, col = np.divmod(
        np.arange(seg.size) - np.repeat(np.cumsum(count) - count, count),
        width[seg],
    )
    row += lo[seg, 1]
    col += lo[seg, 0]
    gx, gy = col.astype(np.float64), row.astype(np.float64)
    ax, ay, abx, aby = a[seg, 0], a[seg, 1], ab[seg, 0], ab[seg, 1]
    t = np.clip(((gx - ax) * abx + (gy - ay) * aby) / denom[seg], 0.0, 1.0)
    ex = gx - (ax + t * abx)
    ey = gy - (ay + t * aby)
    near = ex * ex + ey * ey < reach * reach
    img = np.zeros(IMAGE_SIZE * IMAGE_SIZE)
    np.maximum.at(
        img, (row * IMAGE_SIZE + col)[near],
        np.clip(1.0 + pen - np.hypot(ex[near], ey[near]), 0.0, 1.0),
    )
    return img.reshape(IMAGE_SIZE, IMAGE_SIZE)


def _blur3(img: np.ndarray) -> np.ndarray:
    """Separable 1-2-1 blur with zero padding: along rows, then columns.

    Each pass sums ``(0.25*x[i-1] + 0.5*x[i]) + 0.25*x[i+1]``, in the
    order ``np.convolve`` sums.  Every product is by a power of two and
    so exact, and the result matches ``np.convolve`` bit for bit.
    """
    p = np.zeros((IMAGE_SIZE + 2, IMAGE_SIZE + 2))
    p[1:-1, 1:-1] = img
    # The row pass keeps the zero rows that pad the column pass.
    p = (0.25 * p[:, :-2] + 0.5 * p[:, 1:-1]) + 0.25 * p[:, 2:]
    return (0.25 * p[:-2] + 0.5 * p[1:-1]) + 0.25 * p[2:]


def render_digit(digit: int, rng: np.random.Generator | None = None,
                 jitter: bool = True) -> np.ndarray:
    """Render one digit as a float image in [0, 1], shape (28, 28)."""
    if digit not in _GLYPHS:
        raise ConfigurationError(f"digit must be 0..9, got {digit}")
    rng = rng or np.random.default_rng()
    angle = rng.uniform(-0.22, 0.22) if jitter else 0.0
    scale_x = rng.uniform(0.85, 1.10) if jitter else 1.0
    scale_y = rng.uniform(0.85, 1.10) if jitter else 1.0
    shear = rng.uniform(-0.18, 0.18) if jitter else 0.0
    dx = rng.uniform(-1.6, 1.6) if jitter else 0.0
    dy = rng.uniform(-1.6, 1.6) if jitter else 0.0
    pen = rng.uniform(0.95, 1.45) if jitter else 1.2

    cos_a, sin_a = math.cos(angle), math.sin(angle)
    points, starts = _GLYPHS[digit]
    x = points[:, 0] * scale_x + points[:, 1] * shear
    y = points[:, 1] * scale_y
    xr = x * cos_a - y * sin_a
    yr = x * sin_a + y * cos_a
    # To pixel coordinates (glyph occupies the central ~22 px).
    px = (xr + 0.5) * 22.0 + 3.0 + dx
    py = (yr + 0.5) * 22.0 + 3.0 + dy
    pts_px = np.stack([px, py], axis=1)
    img = _blur3(_ink(pts_px[starts], pts_px[starts + 1], pen))
    if jitter:
        img = img + rng.normal(0.0, 0.04, img.shape)
    img *= rng.uniform(0.85, 1.0) if jitter else 1.0
    return np.clip(img, 0.0, 1.0)


class DigitGenerator:
    """Deterministic generator of labelled digit images."""

    def __init__(self, seed: int = 42) -> None:
        self._rng = np.random.default_rng(seed)

    def generate(self, n: int, classes: tuple[int, ...] = tuple(range(10)),
                 ) -> tuple[np.ndarray, np.ndarray]:
        """``n`` images, classes drawn uniformly from ``classes``.

        Returns ``(images, labels)`` with images of shape (n, 28, 28)
        in [0, 1] and integer labels.
        """
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        if not classes:
            raise ConfigurationError("classes must be non-empty")
        labels = self._rng.choice(np.asarray(classes, dtype=np.int64), size=n)
        images = np.empty((n, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float64)
        for i, label in enumerate(labels):
            images[i] = render_digit(int(label), self._rng)
        return images.astype(np.float32), labels
