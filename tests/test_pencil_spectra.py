"""Every pencil verdict of a campaign, against the verdict of the pencil's spectrum.

``oracles.pencil_spectra`` gives, per block and pencil (K_big, K_small), the
generalized eigenvalues mu and det K_big = D from one thin QR and one
``eigvalsh``.  With mu clipped to [0, 1], a row's sides are
lhs = D prod(t + (1 - 2t) mu) (D for the unit row), q = D prod mu,
dd = D prod(1 - mu) and rhs = (a q^{1/N} + b dd^{1/N})^N with (a, b) = (1, 1)
or (1 - t, t), judged in the outcome's own window tol * scale.  Each
hypothesis-held ``conj1``, ``conj2`` and ``firey`` outcome of a default
campaign at 4 per cell and of the CI's ``pairs-without-dominance`` config must
have the program's verdict.
"""
from __future__ import annotations

import functools
import math

import qfidet.campaign
from qfidet.campaign import CampaignConfig, run_campaign

from oracles import pencil_spectra

CONFIGS = {
    "default-4": CampaignConfig(instances_per_cell=4),
    "pairs-without-dominance": CampaignConfig(
        dims=(3,), num_obs=(1, 3), instances_per_cell=5, functions=("sld",),
        function_pairs=(("wyd:0.7", "sld"), ("kubo-mori", "sld")),
    ),
}


def _spectral_margin(mu, det_big: float, t) -> float:
    """lhs - rhs of the row t (None: the unit row) from one instance's spectrum ``mu`` and det K_big."""
    mu = [min(max(m, 0.0), 1.0) for m in mu]
    n = len(mu)
    a, b = (1.0, 1.0) if t is None else (1.0 - t, t)
    lhs = det_big if t is None else det_big * math.prod(t + (1.0 - 2.0 * t) * m for m in mu)
    q, dd = det_big * math.prod(mu), det_big * math.prod(1.0 - m for m in mu)
    return lhs - (a * q ** (1.0 / n) + b * dd ** (1.0 / n)) ** n


def test_every_pencil_verdict_equals_the_spectral_verdict(monkeypatch):
    spectra, compared, differing = {}, 0, []

    def judged(check):
        @functools.wraps(check)
        def wrapped(inst, *args):
            nonlocal compared
            rep = check(inst, *args)
            if rep.hypothesis_ok:
                f, g, t = rep[9][8:]
                key = inst._block, f, g
                if key not in spectra:
                    mu, det_big = pencil_spectra(*key)
                    spectra[key] = mu.tolist(), det_big.tolist()
                mu, det_big = spectra[key]
                margin = _spectral_margin(mu[inst._index], det_big[inst._index], t)
                compared += 1
                if (margin >= -rep.tol * rep.scale) != rep.passed:
                    differing.append((rep.name, inst.digest, f.label, g and g.label, t, rep.margin, margin))
            return rep

        return wrapped

    for name in ("check_conj1", "check_conj2", "check_firey"):
        monkeypatch.setattr(qfidet.campaign, name, judged(getattr(qfidet.campaign, name)))
    for config in CONFIGS.values():
        run_campaign(config)
    # 108 default instances with 4 unit and 3 pair pencils at 12 rows each, and 30 instances of the
    # other config whose dominated pairs count only where the hypothesis holds
    assert compared > 108 * 7 * 12
    assert differing == [], f"{len(differing)} of {compared} verdicts differ: {differing[:20]}"
