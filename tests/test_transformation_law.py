"""The transformation law as an oracle: on a chart pulled back by a linear
map u -> M u, with pi pulled back to pi(Mu) M, every curvature kind, every
H^theta, W and P at u is the base tensor at Mu pulled back,
M^-1 T(Mu) M M M.  Neither side reads a closed form the other could mask."""

import numpy as np
import pytest

from charts import linear_pullback, pulled_one_form, random_linear_map
from qsc_lab.connections import generator_jets, point_jets
from qsc_lab.curvature import THETAS, curvature_bundle
from qsc_lab.diff import DiffConfig
from qsc_lab.geometry import generator, manifold_by_name, sample_points
from qsc_lab.invariants import h_tensor, hol_projective, weyl_projective
from qsc_lab.tensor import norm_max

# the worst relative difference read 3.5e-15 on the analytic path, 2.8e-8 under fd4
TOLERANCES = {"analytic": 1e-13, "fd4": 1e-6}


def _tensors(m, points, gen, cfg):
    """R^0..R^5, H^0..H^5, W and P at the points, and the bundle scale."""
    pj = point_jets(m, points, cfg)
    b = curvature_bundle(pj, generator_jets(pj, [gen]))
    tensors = {f"R{t}": b.r[t] for t in THETAS}
    tensors |= {f"H{t}": h_tensor(t, b) for t in THETAS}
    tensors |= {"W": weyl_projective(pj), "P": hol_projective(pj)}
    return tensors, b.scale


@pytest.mark.parametrize("scheme", list(TOLERANCES))
@pytest.mark.parametrize("k", [1, 2])
def test_curvature_of_a_linear_pullback_is_the_pulled_back_curvature(k, scheme):
    base = manifold_by_name("fs", k=k)
    mat = random_linear_map(base.n, seed=k)
    pulled = linear_pullback(base, mat)
    x = sample_points(base, 3, seed=30)
    u = np.linalg.solve(mat, x.T).T
    gen = generator("random_poly", dim=base.n, seed=3)
    cfg = DiffConfig(scheme=scheme)
    want, _ = _tensors(base, x, gen, cfg)
    got, scale = _tensors(pulled, u, pulled_one_form(gen, mat), cfg)
    inv = np.linalg.inv(mat)
    assert norm_max(got["W"], 4).max() > 0.1 or k == 1  # W vanishes in two dimensions
    for name, t in want.items():
        law = np.einsum("la,...abcd,bi,cj,dk->...lijk", inv, t, mat, mat, mat, optimize=True)
        rel = (norm_max(got[name] - law, 4) / scale).max()
        assert rel < TOLERANCES[scheme], (name, rel)
