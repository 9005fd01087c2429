"""The library step of the benchmark's ``sequences`` workload, at a small size.

``perfbench/libstep.py`` calls ``d_coefficients``, ``CyclotomicValue.power``
and ``minimality_certificate`` directly, so a library change that breaks it
fails here before it fails the benchmark.
"""

from __future__ import annotations

import json
from pathlib import Path

from symsum import SymmetricSpec, anf_parse, anf_to_function, exp_sum_profile, weight_profile

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_library_step_sums_and_certificates(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import libstep

    argv = ["--degrees", "3,5", "--anf", "x1*x2", "--vars", "3",
            "--inner", "1,5,9", "--k-max", "6"]
    assert libstep.main(argv) == 0
    got = json.loads(capsys.readouterr().out)
    spec = SymmetricSpec((3, 5))
    profile = weight_profile(anf_to_function(anf_parse("x1*x2"), 3))
    want = {str(n): str(exp_sum_profile(spec, profile, n)) for n in (1, 5, 9)}
    assert got["spectral"] == want == {"1": "8", "5": "8", "9": "560"}
    assert got["certificates"] == {str(k): True for k in range(2, 7)}
    assert got["d_nonzero"] == 5
