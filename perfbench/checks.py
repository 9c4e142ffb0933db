"""Output checks on experiment results, shared by every workload."""

from __future__ import annotations

import math

import numpy as np

#: Payload fields that must be finite on every result that carries them.
FINITE_FIELDS = ("gate_error", "custom_channel_error", "default_channel_error", "fid_err")


def inspect(results) -> dict:
    """Finiteness failures and the two layer counts over ``(kind, payload)``.

    ``nonfinite_fields`` lists required fields that are not finite (an
    output failure).  Non-finite ``*_std`` values and negative IRB gate
    errors are counted, not failed: they are known estimator defects.
    """
    nonfinite, nonfinite_std, negative_irb = [], 0, 0
    for kind, payload in results:
        for key, value in payload.items():
            if key in FINITE_FIELDS and not math.isfinite(float(value)):
                nonfinite.append(f"{kind}.{key}")
            elif key.endswith("_std"):
                nonfinite_std += int(np.size(value) - np.isfinite(np.asarray(value, float)).sum())
        if kind == "irb" and float(payload["gate_error"]) < 0:
            negative_irb += 1
    return {
        "nonfinite_fields": nonfinite,
        "nonfinite_std_count": nonfinite_std,
        "negative_irb_count": negative_irb,
    }
