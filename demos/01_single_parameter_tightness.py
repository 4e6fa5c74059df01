#!/usr/bin/env python3
"""For one parameter every lower bound coincides and is attainable.

Builds a two-state classical model and a handful of random single-parameter
quantum models, prints all four lower bounds, then measures with the
spectral decomposition of the averaged logarithmic derivative and shows the
achieved Bayes risk lands on the bound.
"""
import numpy as np

from qbayes.closedform import rld_bound, sld_bound
from qbayes.model import build_extended_moments, classical_binary, random_model
from qbayes.sdpbounds import holevo_type_bound, nagaoka_hayashi_bound
from qbayes.verify import rounded_measurement

models = [("classical binary", classical_binary(1.0, 0.6))]
for seed in (1, 2, 3):
    d = 2 + seed % 3
    models.append((f"random n=1 d={d} seed={seed}", random_model(1, d, seed=seed)))

W = np.eye(1)
for name, model in models:
    em = build_extended_moments(model)
    c_sld, sld = sld_bound(em, W)
    c_rld = rld_bound(em, W)[0]
    c_h = holevo_type_bound(em).value
    c_nh = nagaoka_hayashi_bound(em).value

    achieved = rounded_measurement(model, sld.L).risk

    print(name)
    print(f"  sld      {c_sld:.10f}")
    print(f"  rld      {c_rld:.10f}")
    print(f"  holevo   {c_h:.10f}")
    print(f"  nh       {c_nh:.10f}")
    print(f"  achieved {achieved:.10f}   (gap to nh: {achieved - c_nh:+.2e})")
