"""The library step of the ``sequences`` workload.

For one perturbed degree set it computes the spectral coefficients d_l, the
spectral sums sum over l of d_l * lambda_l**n at the given inner variable
counts, and the minimality certificates of the single degrees k in a range.
Prints one JSON object.
"""

import argparse
import json
from contextlib import nullcontext

import symsum


def main(argv: list[str], recorder=None) -> int:
    p = argparse.ArgumentParser(prog="libstep")
    p.add_argument("--degrees", required=True)
    p.add_argument("--anf", required=True)
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--inner", required=True, help="comma-separated inner variable counts")
    p.add_argument("--k-max", type=int, required=True)
    args = p.parse_args(argv)

    spec = symsum.SymmetricSpec(tuple(int(k) for k in args.degrees.split(",")))
    profile = symsum.weight_profile(symsum.anf_to_function(symsum.anf_parse(args.anf), args.vars))
    d = symsum.d_coefficients(spec, profile)
    lams = [symsum.lambda_value(spec.r, l) for l in range(spec.period)]
    spectral = {}
    with recorder.span("recurrence.spectral_sum") if recorder else nullcontext():
        for n in (int(v) for v in args.inner.split(",")):
            acc = symsum.CyclotomicValue.zero(spec.r)
            for dl, lam in zip(d, lams):
                if not dl.is_zero:
                    acc = acc + dl * lam.power(n)
            spectral[n] = str(acc.as_fraction())
    certificates = {
        k: symsum.minimality_certificate(k, 2 * symsum.min_char_poly(k).degree + 4)
        for k in range(2, args.k_max + 1)
    }
    print(json.dumps({
        "d_nonzero": sum(1 for x in d if not x.is_zero),
        "spectral": spectral,
        "certificates": certificates,
    }, sort_keys=True))
    return 0
