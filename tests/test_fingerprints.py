"""Bit-level fingerprints of the explicit solver and of the snake.

Each solver case pins the iteration count and the SHA-256 of the output
field and of the convergence histories, so a rewrite of the stencil
that moves any result by one unit in the last place fails here.  The
cases cover the mirror border on the full rectangle, per-pixel
coefficients, a multiply connected mask and the periodic border, and
grids three pixels across, under both rules and under a mask whose
window and hole reach the grid border; steady_residual, gvf_step and
laplacian_5pt are pinned too.

Each snake case pins the step count, the stop reason and the SHA-256 of
the final snaxels and of the displacement history.  The cases cover
both tensile signs, resampling on and off, a normalized field, a
contour pinned at the image border and a non-square grid;
sample_field_bilinear is pinned too, on the clamped last row and column.

The inputs use only correctly rounded IEEE-754 arithmetic: no Gaussian
smoothing, rational per-pixel weights instead of exp, and initial
contours on a rational parameterization of the circle instead of sin
and cos.  The hashes therefore do not depend on the platform's
transcendental functions (the snake's own hypot aside).
"""

import hashlib

import numpy as np
import pytest

import gvflow as gv
from gvflow.ioformats import synth_box_with_hole, synth_ushape

DT = 0.12


def sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def unit_edge(image: gv.ScalarField) -> gv.ScalarField:
    """Edge map of a 0/255 image rescaled to 0/1, without smoothing."""
    return gv.edge_map(gv.ScalarField(image.spec, image.values / 255.0))


def rational_weights(f: gv.ScalarField, K: float) -> tuple[gv.ScalarField, gv.ScalarField]:
    """GGVF-shaped per-pixel pair g = K^2 / (K^2 + |grad f|^2), h = 1 - g."""
    grad = gv.gradient_central(f)
    mag2 = grad.u.values ** 2 + grad.v.values ** 2
    g = K * K / (K * K + mag2)
    return gv.ScalarField(f.spec, g), gv.ScalarField(f.spec, 1.0 - g)


def random_image(width: int, height: int, seed: int) -> gv.ScalarField:
    return gv.ScalarField.from_array(np.random.default_rng(seed).random((height, width)))


def u_full():
    f = unit_edge(synth_ushape(64, 64))
    p = gv.GvfParams(g=2.0, h=0.02, dt=DT, delta=1e-6, max_iter=5000)
    return f, p, None, False


def u_per_pixel():
    f = unit_edge(synth_ushape(64, 64))
    g, h = rational_weights(f, 0.05)
    p = gv.GvfParams(g=g, h=h, dt=DT, delta=1e-4, max_iter=5000)
    return f, p, None, False


def box_hole_masked():
    f = unit_edge(synth_box_with_hole(56, 48))
    mask = gv.DomainMask.from_rects(f.spec, outer=(0, 3, 50, 45), hole=(25, 21, 6, 5))
    p = gv.GvfParams(g=1.5, h=0.05, dt=DT, delta=1e-7, max_iter=5000)
    return f, p, mask, False


def periodic():
    f = random_image(40, 48, seed=7)
    p = gv.GvfParams(g=1.0, h=0.1, dt=DT, delta=1e-9, max_iter=5000)
    return f, p, None, True


def thin(width, height, per):
    """A random image on a grid three pixels across: along the short
    axis two of every three pixels lie on the grid border."""
    def make():
        f = random_image(width, height, seed=width * 100 + height)
        p = gv.GvfParams(g=1.0, h=0.1, dt=DT, delta=1e-9, max_iter=5000)
        return f, p, None, per
    return make


def border_masked_per_pixel():
    # the window touches the top, right and bottom of the grid, the hole
    # its left side
    f = random_image(9, 6, seed=17)
    g, h = rational_weights(f, 0.5)
    mask = gv.DomainMask.from_rects(f.spec, outer=(1, 0, 8, 6), hole=(0, 2, 3, 2))
    p = gv.GvfParams(g=g, h=h, dt=DT, delta=1e-9, max_iter=5000)
    return f, p, mask, False


SOLVES = {
    "u-full": (u_full, {
        "NI": 364, "converged": True,
        "u": "84a536f479c734f911d2ad85725f9b26ce6855d32bbd920429d1ed707a4953d8",
        "v": "795333e0fda0c56fc287183aba34b1398e890fa4dcef847544ead92694eeaf01",
        "change_history": "a3e0c44ef2d0d46fb64bd64c4056de5b75a404e23d5058c880b8ddbbe7cabcb6",
        "energy_history": "b6337de5d4d1713648db9edea8b5429ee7f5a79bdfa0c9eeed54f0e038f6c220",
    }),
    "u-per-pixel": (u_per_pixel, {
        "NI": 471, "converged": True,
        "u": "90c3abd632556e7b985dc703712ec8ba8990fd0ff6b4da143f099c01ee9648d1",
        "v": "18c87140a31f6f1efd7fcc24085d97e3af372fb4fbc3c6d7ba6c84e7f60be4eb",
        "change_history": "a49332876a78f669cf4710bd7f0a4fe61a94783603fbe976304e33e0d63bd608",
        "energy_history": "de378aa9bcc6ab8cba28efde5c2e561425395404d535dc7a0efb9eb421837555",
    }),
    "box-hole-masked": (box_hole_masked, {
        "NI": 587, "converged": True,
        "u": "c18a69e7cf7d7718d32b2af4fa6f02b9db58487a5724ae1abc9c1bffb1a5c51b",
        "v": "07a3df1f8845450e90b078bf76704945b1ccb40e48f038fc5e03b219b1912c16",
        "change_history": "40522e9f04688d80d0517be4817d172def699890874f399065404ac16f2b1b47",
        "energy_history": "97a79df41d5af31fe740bf7c2a3491cf9e473b883058994c4d776c0eba96cafc",
    }),
    "periodic": (periodic, {
        "NI": 699, "converged": True,
        "u": "50edd40687e7990f122df4d2820d936946ae84f058791bd5752b1fd158daf46e",
        "v": "4a66a96b02c759fbd288dff9ee8bf95d8e8411175ab6841a68d1a34d95155ea8",
        "change_history": "a406a5a21221085d2ef96d23190550211dcd9c8e7e1ae8ec2ce5bfe1e2a7738e",
        "energy_history": "ae6ae6b82611b1e9b41223d01260ff4518331a81d08ab1488136de91300c21a3",
    }),
    "thin-3x17-mirror": (thin(3, 17, False), {
        "NI": 759, "converged": True,
        "u": "48bf445fc20e85d4fd0b44010f60462c7f68332f838b00c57d8aed3731f1d12e",
        "v": "41c79558e04059200121f48223ebd16671f7fd2df62dda32b1b2bb23a32cff5d",
        "change_history": "f44b1f71286e3ecda9a1903cb1e15168909a8a9cd6ec6fb7df6239d43be316e2",
        "energy_history": "76778b3a9793f4a5b4d812f0d8103af6c8b691ae23352eb3d8fcd77d50607826",
    }),
    "thin-3x17-periodic": (thin(3, 17, True), {
        "NI": 481, "converged": True,
        "u": "3b21caaf2505156082ffecb78e209401fbc1a99176ab64c9275000a0f740f485",
        "v": "0dd2d8a25c84baea007276312f76402b56e09a800823a1c6273cb6b9ec3c5b32",
        "change_history": "93b5e4ce88a50a33a9a4dbbac82f6dbeec3fa5f7197c61ee5f0704ffcbe2d36c",
        "energy_history": "1d87cb3519c6366aac03e988661d43e536aff6f01bfcc315ab0a92a990105254",
    }),
    "thin-17x3-mirror": (thin(17, 3, False), {
        "NI": 762, "converged": True,
        "u": "4accbd1a39edb09da688d3a8959fcd639288dd841b9b89a23ebf2105f10ef18c",
        "v": "53a4a0fad0dc06f4850fdfe5188338ac50152ee15ee1deb445d6ad5ebeabc5da",
        "change_history": "548666b81017fc2d3fdedf0298af6cab9e640a1d8b15ec0618fd9b9787714a34",
        "energy_history": "89959cbc6ff9bfeccfaafbb3e33824e2ffc78edeea24415f0969ac73424126d6",
    }),
    "thin-17x3-periodic": (thin(17, 3, True), {
        "NI": 465, "converged": True,
        "u": "1e7ccdff833f1c25fb81ed105d83696848f5a607f042f78e478a63e5651a84af",
        "v": "b66c4e4711c34ee4edade7a70a7cdaf2d20ff28207e8ddb5717f5f8fb4040fed",
        "change_history": "e0fb975efbcbb922c6fc1f5f93aaa6aa2e04b447f137fa65e50c66ef888211d1",
        "energy_history": "b52d2af958a858f640276ce236eaf2fce260a19301c946c24d108fcd638884d0",
    }),
    "border-masked-per-pixel": (border_masked_per_pixel, {
        "NI": 711, "converged": True,
        "u": "0e7620924c267c43e2108e6dd028f78c7ad0e5be407034bda346f690fbc916ac",
        "v": "b7edd1a72a498e4e9f5f55e91b71fd1cc72becf93b545d19a614f2fc51da99a6",
        "change_history": "68da775483ee49bd5fb6147f7ecda352c5b0269a20fd863efa8e326fe7ab1aa3",
        "energy_history": "0c1c899199ba357aa86dc56964f9673c370862d27842107e74e522f8c1858a32",
    }),
}


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_solve_fingerprint(name):
    make, expected = SOLVES[name]
    f, p, mask, per = make()
    rep = gv.gvf_solve(f, p, mask, periodic=per, force=True)
    got = {
        "NI": rep.iterations,
        "converged": rep.converged,
        "u": sha(rep.field.u.values),
        "v": sha(rep.field.v.values),
        "change_history": sha(rep.change_history),
        "energy_history": sha(rep.energy_history),
    }
    assert got == expected


def test_steady_residual_fingerprint():
    got = {}
    for name in ("u-full", "u-per-pixel", "box-hole-masked"):
        f, p, mask, _ = SOLVES[name][0]()
        v = gv.gradient_central(random_image(f.spec.width, f.spec.height, seed=3))
        got[name] = gv.steady_residual(v, f, p, mask).hex()
    assert got == {
        "u-full": "0x1.81be7628805f8p+2",
        "u-per-pixel": "0x1.6f97cced9d67ap+1",
        "box-hole-masked": "0x1.32f8f165d663ep+2",
    }


def test_gvf_step_fingerprint():
    # nonzero exterior values must come back untouched
    f, p, mask, _ = box_hole_masked()
    spec = f.spec
    v = gv.gradient_central(random_image(spec.width, spec.height, seed=5))
    grad = gv.gradient_central(f)
    got = {}
    for name, m in (("full", None), ("masked", mask)):
        out = gv.gvf_step(v, grad, p, m)
        got[name] = (sha(out.u.values), sha(out.v.values))
    assert got == {
        "full": ("892084bb3428dc3c0aeb0f4f24d9fc368380ee2674a31ae1486373dc56ed284f",
                 "e9ffbc82b2c2acc82b298d601621547f5af9583aa12ab2dc48bbef85a4debdb7"),
        "masked": ("9219a949cb57c9033dc1cd569ebc109836e7837eda070680d2b35ba85ba73121",
                   "ae248165806869085be2209327d3c460c3ae4021ad88fb171dd603eb41930202"),
    }


def test_laplacian_fingerprint():
    lap = gv.laplacian_5pt(random_image(23, 17, seed=11))
    assert sha(lap.values) == "442d925ac825b16f83aa3e0a8f50920c92d1aef2b0ddd5db1b281e263da0839e"


def scaled_field(make, scale: float) -> gv.VectorField:
    """The field of one of the solves above, times a power of two."""
    f, p, mask, per = make()
    field = gv.gvf_solve(f, p, mask, periodic=per, force=True).field
    return gv.VectorField.from_arrays(field.u.values * scale, field.v.values * scale)


def rational_ring(cx: float, cy: float, r: float, n: int) -> gv.Snake:
    """n snaxels (a multiple of 4) on a circle, placed by the rational
    parameterization ((1 - t^2), 2t) / (1 + t^2) for t in [-1, 1)."""
    q = n // 4
    t = (np.arange(2 * q) - q) / q
    c = (1.0 - t * t) / (1.0 + t * t)
    s = 2.0 * t / (1.0 + t * t)
    x, y = np.concatenate([c, -c]), np.concatenate([s, -s])
    return gv.Snake(np.column_stack([cx + r * x, cy + r * y]))


@pytest.fixture(scope="module")
def snake_fields():
    # peaks about 0.25 px/step on the 64x64 U and 0.35 on the 56x48 box
    return {"u": scaled_field(u_full, 64.0), "box": scaled_field(box_hole_masked, 32.0)}


SNAKES = {
    "contract-resample": ("u", (31.5, 31.5, 26.0, 64), dict(
        b=0.1, tensile_sign=-1.0, resample_spacing=2.0, max_iter=1500), {
        "iterations": 1500, "converged": False,
        "points": "eb3e79c1614d0f6565d44a2ba0be0f6224da37f291f69c32d854cad82d96aef2",
        "history": "1c51aa03efe6bcb7e311fa3e47528447473c8c47ba05d1dbd6f2d9f8d5d1e0bd",
    }),
    "inflate-no-resample": ("u", (31.5, 40.0, 4.0, 16), dict(
        b=0.1, tensile_sign=1.0, resample_spacing=0.0, eps=1e-3, max_iter=25), {
        "iterations": 25, "converged": False,
        "points": "dcee508a385e344de8780dec81fc3a8df6fc85a630f19ccae54abe2e6f660b64",
        "history": "fd9d40230175e016ed0d132542a0f1eba04df86986fba948b3bf5d6e79e4e45d",
    }),
    "normalize": ("u", (31.5, 31.5, 26.0, 64), dict(
        b=0.2, gamma=0.3, tensile_sign=-1.0, normalize=True, max_iter=600), {
        "iterations": 600, "converged": False,
        "points": "e7bd0c5b392a71d48044e5e063f32e8a84758e6709b9ea350f6e56686a82ab70",
        "history": "1db7fabb3901f35751b47c5b1c9b23af7076b493781d1f2683e748d286d2d937",
    }),
    "border-pinned": ("u", (31.5, 31.5, 28.0, 48), dict(
        b=0.3, tensile_sign=1.0, resample_spacing=0.0, max_iter=300), {
        "iterations": 56, "converged": True,
        "points": "9837ac72d182fecc69bbb3f6e9fd356c63c603336d9610db0179384914e5442c",
        "history": "854d0a1d878a817437549c5b9dad06dc9851d699ae81316f0709ac5018dbbbf3",
    }),
    "non-square": ("box", (28.0, 24.0, 22.0, 48), dict(
        b=0.1, tensile_sign=-1.0, max_iter=1500), {
        "iterations": 1500, "converged": False,
        "points": "52e3c81a735b7c66aed0629da85d6a7bcef1a9f76197ba61a2b812ff80d04253",
        "history": "980be1666741391f3cbe719be3dd67ffbd01b1d50e92cd1f7cba415b591014d6",
    }),
}


@pytest.mark.parametrize("name", sorted(SNAKES))
def test_snake_fingerprint(name, snake_fields):
    key, ring, kw, expected = SNAKES[name]
    res = gv.snake_evolve(rational_ring(*ring), snake_fields[key], gv.SnakeParams(**kw))
    got = {
        "iterations": res.iterations,
        "converged": res.converged,
        "points": sha(res.snake.points),
        "history": sha(res.displacement_history),
    }
    assert got == expected


def test_border_pinned_contour_touches_all_four_sides(snake_fields):
    _, ring, kw, _ = SNAKES["border-pinned"]
    res = gv.snake_evolve(rational_ring(*ring), snake_fields["u"], gv.SnakeParams(**kw))
    pts = res.snake.points
    assert pts.min(axis=0).tolist() == [0.0, 0.0]
    assert pts.max(axis=0).tolist() == [63.0, 63.0]


def test_sample_field_bilinear_fingerprint():
    # 23 wide, 17 high: the last column is x = 22 and the last row y = 16
    field = gv.gradient_central(random_image(23, 17, seed=13))
    points = [(0.0, 0.0), (7.3, 9.9), (22.0, 16.0), (22.0, 10.25), (12.75, 16.0),
              (21.5, 15.5), (-3.0, 20.0), (30.125, -0.5), (15.0625, 3.875)]
    got = [tuple(c.hex() for c in gv.sample_field_bilinear(field, x, y)) for x, y in points]
    assert got == [
        ("-0x1.37227009c1300p-8", "-0x1.4e4a0cc60fc8ep-3"),
        ("0x1.eb1f5d9fe72b6p-3", "0x1.74398729d9038p-3"),
        ("-0x1.7031e42673000p-4", "0x1.7d8e5e75a0650p-5"),
        ("0x1.59b861b292e93p-3", "-0x1.919a2b6744aeap-4"),
        ("-0x1.23395edf5d300p-2", "-0x1.b2420fa88db2fp-3"),
        ("0x1.c2b0e5e1bd3e6p-5", "0x1.536651d7a7fd4p-3"),
        ("-0x1.745f2248cb924p-3", "0x1.051d073ed27f0p-2"),
        ("0x1.9ece68f0dc324p-4", "-0x1.7fa3d499ca34cp-3"),
        ("-0x1.c3d283726aa6fp-7", "-0x1.dccc7c56d942ap-4"),
    ]
