"""The toolkit's known wrong answers, each asserting the theorem's answer as a strict xfail.

A case that starts to pass is an XPASS, which fails the suite: the change
that fixes the defect turns its case into a plain test.
"""

import json

import numpy as np
import pytest

from cvnnuniv.activations import ActivationSpec, by_name
from cvnnuniv.classifier import ClassifierConfig, _verdict, classify
from cvnnuniv.cli import run_cli
from cvnnuniv.grids import make_grid
from cvnnuniv.verify import check_network_invariant

# criterion 8's tolerance on dbar and the synthesis budget on the cone
DBAR_TOL = 1e-5
BUDGET = 0.1


def wrong_answer(reason):
    # only the failed assertion is the known wrong answer: any other error still fails the suite
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


capped_order = wrong_answer("the polyharmonic search stops at MAX_ORDER = 4 and reads yes (ROADMAP item 3)")
capped_degree = wrong_answer("the polynomial search stops at MAX_DEGREE = 4 and reads deep yes (ROADMAP item 3)")


@capped_order
def test_abs_pow8_is_no_universal_activation():
    # |z|^8 = (z zbar)^4 is a polynomial, polyharmonic of order 5
    report = classify(ActivationSpec(name="abs_pow8", fn=lambda z: np.abs(z) ** 8 + 0j))
    assert report.shallow_universal != "yes" and report.deep_universal != "yes"


@capped_degree
@pytest.mark.parametrize(
    "sigma",
    [
        ActivationSpec(name="abs_pow6", fn=lambda z: np.abs(z) ** 6 + 0j),
        ActivationSpec(name="z3_zbar2", fn=lambda z: z**3 * np.conj(z) ** 2),
        ActivationSpec(name="z5_plus_zbar", fn=lambda z: z**5 + np.conj(z)),
        ActivationSpec(name="z2_zbar5", fn=lambda z: z**2 * np.conj(z) ** 5 / 10),
    ],
    ids=lambda s: s.name,
)
def test_a_polynomial_of_degree_5_or_more_is_no_deep_universal_activation(sigma):
    # a depth-L network of a degree-N polynomial is a polynomial of degree N^L
    assert _verdict(sigma, "deep_universal") != "yes"


@wrong_answer("a grid inside the cuts sees only a holomorphic function and reads no/indeterminate (ROADMAP item 3)")
def test_arcsin_principal_is_universal_on_a_grid_that_misses_its_cuts():
    # arcsin is holomorphic on |z| < 1 but, through its cuts |x| >= 1, not a.e. polyharmonic on C
    report = classify(by_name("arcsin_principal"), ClassifierConfig(grid_radius=0.5))
    assert (report.shallow_universal, report.deep_universal) == ("yes", "yes")


def _certificate(tmp_path, argv):
    out = tmp_path / "cert.json"
    code = run_cli(["approximate", "--target", "cone", "--out", str(out), *argv])
    return code, json.loads(out.read_text()) if out.exists() else None


@wrong_answer("the refit stays holomorphic off the cut and exits 0 at 0.556 (ROADMAP items 4(a), 7)")
@pytest.mark.parametrize("activation", ["zlog", "rho_c"])
def test_a_shallow_cone_certificate_that_exits_0_meets_its_budget(tmp_path, activation):
    code, cert = _certificate(tmp_path, ["--activation", activation, "--degree", "6"])
    assert code != 0 or cert["sup_error"] <= BUDGET


@wrong_answer("_ridge_stage never fits the cone's apex and exits 0 at 0.12-0.13 (ROADMAP items 4(a), 6)")
@pytest.mark.parametrize("seed", [4, 7])
def test_a_lifted_cone_certificate_that_exits_0_meets_its_budget(tmp_path, seed):
    # seed 2 misses the budget too (0.109); each lifted run takes about 2.5 s, so two of them keep the file under 10 s
    code, cert = _certificate(tmp_path, ["--activation", "ratio", "--dims", "2", "--seed", str(seed)])
    assert code != 0 or cert["sup_error"] <= BUDGET


@wrong_answer("stencil error is measured against a fixed tol: 3.03e-5 (ROADMAP item 3)")
def test_tanh_networks_pass_the_dbar_tolerance_at_depth_3_seed_9():
    # every tanh network is holomorphic where it is defined; the CLI's invariants grid at seed 9
    report = check_network_invariant(by_name("tanh"), 3, "dbar", make_grid(0.0, 1.5, 17), seed=9)
    assert report.max_residual <= DBAR_TOL
