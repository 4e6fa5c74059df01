#!/usr/bin/env python3
"""Sandwich check on random models: upper bound above, lower bounds ordered.

Draws a few random grid models with random positive weight matrices and
verifies seesaw >= nagaoka-hayashi >= holevo >= max(sld, rld) on each,
printing the achieved risk, the risk of the rounded NH measurement it
starts from, and the margins. A negative margin would indicate a bug.
"""
import numpy as np

from qbayes.verify import ordering_audit
from qbayes.model import random_model, with_weight

rng = np.random.default_rng(42)

print(f"{'model':24s} {'seesaw':>10s} {'rounded':>10s} {'nh':>10s} "
      f"{'holevo':>10s} {'min margin':>12s}")
for trial in range(6):
    n = int(rng.integers(2, 4))
    d = int(rng.integers(2, 4))
    model = random_model(n, d, seed=trial, grid=int(rng.integers(2, 4)))
    G = rng.standard_normal((n, n))
    model = with_weight(model, G @ G.T + 0.3 * np.eye(n))
    audit = ordering_audit(model, iters=10, seed=0)
    v = audit["values"]
    label = f"n={n} d={d} m={len(model.points)} seed={trial}"
    print(f"{label:24s} {v['seesaw_risk']:10.6f} {audit['rounded_risk']:10.6f} "
          f"{v['nh']:10.6f} {v['holevo']:10.6f} {audit['min_margin']:12.2e}")
    assert audit["ok"], "ordering violated"

print("\nall margins nonnegative up to solver tolerance")
