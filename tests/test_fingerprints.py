"""Bit-level fingerprints of the explicit solver.

Each case pins the iteration count and the SHA-256 of the output field
and of the convergence histories, so a rewrite of the stencil that
moves any result by one unit in the last place fails here.  The cases
cover the mirror border on the full rectangle, per-pixel coefficients,
a multiply connected mask and the periodic border; steady_residual,
gvf_step and laplacian_5pt are pinned too.

The inputs use only correctly rounded IEEE-754 arithmetic: no Gaussian
smoothing and rational per-pixel weights instead of exp.  The hashes
therefore do not depend on the platform's transcendental functions.
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
