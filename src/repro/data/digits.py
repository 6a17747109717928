"""Procedural 28x28 handwritten-digit renderer.

Each digit class is described by a stroke skeleton (a set of polylines
in the unit square, ellipse arcs included).  Rendering:

1. apply a random affine transform to the skeleton (rotation, scale,
   shear, translation) — per-sample handwriting variation;
2. rasterise with an anti-aliased distance-to-segment pen of randomised
   width;
3. add mild blur and pixel noise.

Images render a stack at a time: a generator draws each image's
variation in turn, then rasterises, blurs and scales a whole chunk in
one pass of array operations.  One image is the stack of one.

The result is MNIST-like in format (float images in [0, 1], centred
28x28 glyphs) and difficulty class (linear models plateau well below
MLPs, MLPs reach the high 90s).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError, _integer

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
    segment is 0.06 long, and the jitter never shrinks a length below
    0.46 of itself, so no segment reaches the rasteriser with zero
    length.
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

#: Images :meth:`DigitGenerator.generate` renders as one stack: enough to
#: spread numpy's per-call cost, few enough that the rasteriser's
#: temporaries stay at a few MB.
CHUNK = 64

# One image's jitter, in the order it is drawn: rotation (rad), x and y
# scale, shear, x and y shift (px), pen width (px).
_JITTER_LOW = np.array([-0.22, 0.85, 0.85, -0.18, -1.6, -1.6, 0.95])
_JITTER_HIGH = np.array([0.22, 1.10, 1.10, 0.18, 1.6, 1.6, 1.45])
_NO_JITTER = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.2])

_LAST = IMAGE_SIZE - 1


def _ranges(start: np.ndarray,
            length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges ``start[i] + arange(length[i])``, one after another:
    each element's ``i`` and its value."""
    run = np.repeat(np.arange(len(length)), length)
    offset = np.repeat(np.cumsum(length) - length - start, length)
    return run, np.arange(run.size) - offset


def _window_pixels(lo: np.ndarray, hi: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pixel of segment ``k``'s window, ``lo[k]`` to ``hi[k]``
    inclusive, for every ``k``: its segment, ``x`` and ``y`` (floats).

    One (segment, row) pair per row of a window, then one (segment,
    pixel) pair per pixel of each such row.
    """
    seg, row = _ranges(lo[:, 1], hi[:, 1] - lo[:, 1] + 1)
    line, col = _ranges(lo[seg, 0], (hi[:, 0] - lo[:, 0] + 1)[seg])
    return seg[line], col.astype(np.float64), row[line].astype(np.float64)


def _offsets(a: np.ndarray, ab: np.ndarray, denom: np.ndarray,
             seg: np.ndarray, x: np.ndarray,
             y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each pixel ``(x[i], y[i])`` less the point of segment ``seg[i]``
    (from ``a`` along ``ab``) nearest to it."""
    ax, ay = a[:, 0][seg], a[:, 1][seg]
    abx, aby = ab[:, 0][seg], ab[:, 1][seg]
    t = np.clip(((x - ax) * abx + (y - ay) * aby) / denom[seg], 0.0, 1.0)
    return x - (ax + t * abx), y - (ay + t * aby)


def _ink(a: np.ndarray, b: np.ndarray, pens: np.ndarray,
         image: np.ndarray) -> np.ndarray:
    """A stack of anti-aliased pen strokes: segment ``a[k]``-``b[k]``
    (pixels) on image ``image[k]``, drawn with pen ``pens[image[k]]``.

    Returns ``len(pens)`` images.  Each pixel takes
    ``clip(1 + pen - dist, 0, 1)`` for the segment nearest to it,
    ``dist`` being the exact distance, so a pixel at ``dist >= 1 + pen``
    gets exactly zero ink, the value its image starts from.  A segment
    therefore visits only the pixels within ``reach = 1 + pen + 1e-6``
    of its bounding box, and measures ``dist`` only where the squared
    distance is below ``reach**2``.  The box bounds and the squared
    distance err by rounding alone, about 1e-14 px at these sizes, far
    below the 1e-6 margin: every pixel skipped has a computed ``dist``
    above ``1 + pen``, and so would take zero ink.  Segments must have
    positive length.
    """
    ab = b - a
    # Each segment's ``ab @ ab``, summed by the same matmul loop (BLAS's
    # dot) as the per-segment form the images were made with;
    # ``abx*abx + aby*aby`` rounds differently.
    denom = (ab[:, None, :] @ ab[:, :, None]).ravel()
    pen = pens[image]
    reach = 1.0 + pen + 1e-6
    lo = np.clip(np.ceil(np.minimum(a, b) - reach[:, None]), 0, _LAST)
    hi = np.clip(np.floor(np.maximum(a, b) + reach[:, None]), 0, _LAST)
    # The helpers free each (segment, pixel) temporary once it is used
    # up: a fresh process faults a chunk's peak in anew, since the heap
    # hands its top back to the kernel after every chunk.
    seg, x, y = _window_pixels(lo.astype(np.intp), hi.astype(np.intp))
    ex, ey = _offsets(a, ab, denom, seg, x, y)
    near = np.flatnonzero(ex * ex + ey * ey < (reach * reach)[seg])
    seg = seg[near]
    row, col = y[near].astype(np.intp), x[near].astype(np.intp)
    stack = np.zeros((len(pens), IMAGE_SIZE, IMAGE_SIZE))
    np.maximum.at(
        stack.reshape(-1), (image[seg] * IMAGE_SIZE + row) * IMAGE_SIZE + col,
        np.clip(1.0 + pen[seg] - np.hypot(ex[near], ey[near]), 0.0, 1.0),
    )
    return stack


def _blur3(img: np.ndarray) -> np.ndarray:
    """Separable 1-2-1 blur of each image, with zero padding: along rows,
    then columns.

    Each pass sums ``(0.25*x[i-1] + 0.5*x[i]) + 0.25*x[i+1]``, in the
    order ``np.convolve`` sums.  Every product is by a power of two and
    so exact, and the result matches ``np.convolve`` bit for bit.
    """
    p = np.zeros(img.shape[:-2] + (IMAGE_SIZE + 2, IMAGE_SIZE + 2))
    p[..., 1:-1, 1:-1] = img
    # The row pass keeps the zero rows that pad the column pass.
    p = (0.25 * p[..., :-2] + 0.5 * p[..., 1:-1]) + 0.25 * p[..., 2:]
    return ((0.25 * p[..., :-2, :] + 0.5 * p[..., 1:-1, :])
            + 0.25 * p[..., 2:, :])


def _draw(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, float]:
    """One image's jitter, pixel noise and gain, drawn in that order."""
    return (rng.uniform(_JITTER_LOW, _JITTER_HIGH),
            rng.normal(0.0, 0.04, (IMAGE_SIZE, IMAGE_SIZE)),
            rng.uniform(0.85, 1.0))


def _render(labels: np.ndarray, jitter: np.ndarray, noise: np.ndarray,
            gain: np.ndarray) -> np.ndarray:
    """Render digit ``labels[i]`` with ``jitter[i]``, ``noise[i]`` and
    ``gain[i]`` as drawn by :func:`_draw`, for every ``i`` at once.

    Returns a float64 stack in [0, 1], shape ``(len(labels), 28, 28)``.
    Every image takes the same float operations, in the same order, as
    it would alone.
    """
    glyphs = [_GLYPHS[label] for label in labels.tolist()]
    sizes = [len(points) for points, _ in glyphs]
    first = np.cumsum(sizes) - sizes
    points = np.concatenate([points for points, _ in glyphs])
    starts = np.concatenate([s + f for (_, s), f in zip(glyphs, first)])
    image = np.repeat(np.arange(len(glyphs)), [len(s) for _, s in glyphs])
    # Each point's affine transform: rotation, scale, shear, shift.
    _, scale_x, scale_y, shear, dx, dy, _ = np.repeat(jitter, sizes, 0).T
    angles = jitter[:, 0].tolist()
    cos_a = np.repeat([math.cos(angle) for angle in angles], sizes)
    sin_a = np.repeat([math.sin(angle) for angle in angles], sizes)
    x = points[:, 0] * scale_x + points[:, 1] * shear
    y = points[:, 1] * scale_y
    xr = x * cos_a - y * sin_a
    yr = x * sin_a + y * cos_a
    # To pixel coordinates (glyph occupies the central ~22 px).
    px = (xr + 0.5) * 22.0 + 3.0 + dx
    py = (yr + 0.5) * 22.0 + 3.0 + dy
    pts_px = np.stack([px, py], axis=1)
    stack = _blur3(_ink(pts_px[starts], pts_px[starts + 1], jitter[:, 6],
                        image))
    stack += noise
    stack *= gain[:, None, None]
    return np.clip(stack, 0.0, 1.0, out=stack)


def _check_digit(name: str, value) -> int:
    """``value`` as a digit 0..9: an integer, numpy's included, but no
    bool, float or string."""
    digit = _integer(name, value)
    if digit not in _GLYPHS:
        raise ConfigurationError(f"{name} must be 0..9, got {digit}")
    return digit


def render_digit(digit: int, rng: np.random.Generator | None = None,
                 jitter: bool = True) -> np.ndarray:
    """Render one digit as a float image in [0, 1], shape (28, 28).

    With ``jitter``, draws the image's variation from ``rng`` as
    :meth:`DigitGenerator.generate` does; without it, renders the
    canonical glyph and draws nothing.
    """
    digit = _check_digit("digit", digit)
    if jitter:
        draws = _draw(rng or np.random.default_rng())
    else:
        draws = _NO_JITTER, np.zeros((IMAGE_SIZE, IMAGE_SIZE)), 1.0
    return _render(np.array([digit]), *(np.array([d]) for d in draws))[0]


class DigitGenerator:
    """Deterministic generator of labelled digit images."""

    def __init__(self, seed: int = 42) -> None:
        seed = _integer("seed", seed)
        if seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {seed}")
        self._rng = np.random.default_rng(seed)

    def generate(self, n: int, classes: tuple[int, ...] = tuple(range(10)),
                 ) -> tuple[np.ndarray, np.ndarray]:
        """``n`` images, classes drawn uniformly from ``classes``.

        Returns ``(images, labels)`` with float32 images of shape
        (n, 28, 28) in [0, 1] and int64 labels.  Draws every label
        first, then each image's variation in turn, and renders
        :data:`CHUNK` images at a time.
        """
        n = _integer("n", n)
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        classes = tuple(_check_digit("classes", c) for c in classes)
        if not classes:
            raise ConfigurationError("classes must be non-empty")
        labels = self._rng.choice(np.asarray(classes, dtype=np.int64), size=n)
        images = np.empty((n, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
        for start in range(0, n, CHUNK):
            chunk = labels[start:start + CHUNK]
            draws = zip(*[_draw(self._rng) for _ in chunk])
            images[start:start + CHUNK] = _render(chunk,
                                                  *map(np.array, draws))
        return images, labels
