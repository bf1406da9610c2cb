"""Golden pins for the adder constructors and everything they feed.

The literals below were recorded from the per-family adder classes before
they became factories over ``spec.to_model()``.  They pin what callers can
observe: each constructor's ``name`` and ``fingerprint()``, the bytes of
every experiment's JSON, the paper-model error probabilities Fig. 9 and
Table IV report, and the served ``{"gear": [n, r, p]}`` response bodies.
Never regenerate them to make a change pass: a mismatch means a change in
observable output.
"""

import hashlib
import json

import pytest

from repro.adders import (
    AccuracyConfigurableAdder,
    AlmostCorrectAdder,
    ErrorTolerantAdderII,
    ErrorTolerantAdderIIM,
    GracefullyDegradingAdder,
    LowerPartOrAdder,
)
from repro.core.gear import GeArAdder, GeArConfig
from repro.experiments import EXPERIMENTS
from repro.experiments.fig9 import run_fig9
from repro.experiments.table4 import run_table4
from repro.serve.protocol import canonical_bytes, offline_eval_payload

CONSTRUCTORS = [
    (lambda: GeArAdder(GeArConfig(12, 4, 4)), "GeAr(N=12,R=4,P=4)",
     "spec/v1:gear_12_4_4:w12:t0:d1:[0.7.0.7.rca.fused;4.11.8.11.rca.fused]"),
    (lambda: GeArAdder(GeArConfig(20, 3, 7, allow_partial=True)),
     "GeAr(N=20,R=3,P=7)",
     "spec/v1:gear_20_3_7:w20:t0:d1:[0.9.0.9.rca.fused;3.12.10.12.rca.fused;"
     "6.15.13.15.rca.fused;9.18.16.18.rca.fused;10.19.19.19.rca.fused]"),
    (lambda: GeArAdder(GeArConfig(16, 2, 2)), "GeAr(N=16,R=2,P=2)",
     "spec/v1:gear_16_2_2:w16:t0:d1:[0.3.0.3.rca.fused;2.5.4.5.rca.fused;"
     "4.7.6.7.rca.fused;6.9.8.9.rca.fused;8.11.10.11.rca.fused;"
     "10.13.12.13.rca.fused;12.15.14.15.rca.fused]"),
    (lambda: GeArAdder(GeArConfig(16, 2, 4)), "GeAr(N=16,R=2,P=4)",
     "spec/v1:gear_16_2_4:w16:t0:d1:[0.5.0.5.rca.fused;2.7.6.7.rca.fused;"
     "4.9.8.9.rca.fused;6.11.10.11.rca.fused;8.13.12.13.rca.fused;"
     "10.15.14.15.rca.fused]"),
    (lambda: GeArAdder(GeArConfig(16, 2, 6)), "GeAr(N=16,R=2,P=6)",
     "spec/v1:gear_16_2_6:w16:t0:d1:[0.7.0.7.rca.fused;2.9.8.9.rca.fused;"
     "4.11.10.11.rca.fused;6.13.12.13.rca.fused;8.15.14.15.rca.fused]"),
    (lambda: AlmostCorrectAdder(16, 4), "ACA-I(N=16,L=4)",
     "spec/v1:aca1_16_4:w16:t0:d1:[0.3.0.3.rca.fused;1.4.4.4.rca.fused;"
     "2.5.5.5.rca.fused;3.6.6.6.rca.fused;4.7.7.7.rca.fused;"
     "5.8.8.8.rca.fused;6.9.9.9.rca.fused;7.10.10.10.rca.fused;"
     "8.11.11.11.rca.fused;9.12.12.12.rca.fused;10.13.13.13.rca.fused;"
     "11.14.14.14.rca.fused;12.15.15.15.rca.fused]"),
    (lambda: AccuracyConfigurableAdder(16, 8), "ACA-II(N=16,L=8)",
     "spec/v1:aca2_16_8:w16:t0:d1:[0.7.0.7.rca.fused;4.11.8.11.rca.fused;"
     "8.15.12.15.rca.fused]"),
    (lambda: AccuracyConfigurableAdder(20, 6, allow_partial=True),
     "ACA-II(N=20,L=6)",
     "spec/v1:aca2_20_6:w20:t0:d1:[0.5.0.5.rca.fused;3.8.6.8.rca.fused;"
     "6.11.9.11.rca.fused;9.14.12.14.rca.fused;12.17.15.17.rca.fused;"
     "14.19.18.19.rca.fused]"),
    (lambda: ErrorTolerantAdderII(16, 8), "ETAII(N=16,L=8)",
     "spec/v1:etaii_16_8:w16:t0:d0:[0.3.0.3.rca.fused;0.7.4.7.rca.gen_rca;"
     "4.11.8.11.rca.gen_rca;8.15.12.15.rca.gen_rca]"),
    (lambda: ErrorTolerantAdderII(20, 6, allow_partial=True),
     "ETAII(N=20,L=6)",
     "spec/v1:etaii_20_6:w20:t0:d0:[0.2.0.2.rca.fused;0.5.3.5.rca.gen_rca;"
     "3.8.6.8.rca.gen_rca;6.11.9.11.rca.gen_rca;9.14.12.14.rca.gen_rca;"
     "12.17.15.17.rca.gen_rca;14.19.18.19.rca.gen_rca]"),
    (lambda: ErrorTolerantAdderIIM(16, 4, 2), "ETAIIM(N=16,L=4,conn=2)",
     "spec/v1:etaiim_16_4_2:w16:t0:d0:[0.1.0.1.rca.fused;0.3.2.3.rca.gen_rca;"
     "2.5.4.5.rca.gen_rca;4.7.6.7.rca.gen_rca;6.9.8.9.rca.gen_rca;"
     "8.11.10.11.rca.gen_rca;10.15.12.15.rca.gen_rca]"),
    (lambda: ErrorTolerantAdderIIM(12, 4), "ETAIIM(N=12,L=4,conn=2)",
     "spec/v1:etaiim_12_4_2:w12:t0:d0:[0.1.0.1.rca.fused;0.3.2.3.rca.gen_rca;"
     "2.5.4.5.rca.gen_rca;4.7.6.7.rca.gen_rca;6.11.8.11.rca.gen_rca]"),
    (lambda: GracefullyDegradingAdder(16, 4, 8), "GDA(N=16,MB=4,MC=8)",
     "spec/v1:gda_16_4_8:w16:t0:d0:[0.3.0.3.rca.fused;0.7.4.7.rca.gen_cla;"
     "0.11.8.11.rca.gen_cla;4.15.12.15.rca.gen_cla]"),
    (lambda: GracefullyDegradingAdder(20, 1, 9, enforce_multiple=False),
     "GDA(N=20,MB=1,MC=9)",
     "spec/v1:gda_20_1_9:w20:t0:d0:[0.0.0.0.rca.fused;0.1.1.1.rca.gen_cla;"
     "0.2.2.2.rca.gen_cla;0.3.3.3.rca.gen_cla;0.4.4.4.rca.gen_cla;"
     "0.5.5.5.rca.gen_cla;0.6.6.6.rca.gen_cla;0.7.7.7.rca.gen_cla;"
     "0.8.8.8.rca.gen_cla;0.9.9.9.rca.gen_cla;1.10.10.10.rca.gen_cla;"
     "2.11.11.11.rca.gen_cla;3.12.12.12.rca.gen_cla;4.13.13.13.rca.gen_cla;"
     "5.14.14.14.rca.gen_cla;6.15.15.15.rca.gen_cla;7.16.16.16.rca.gen_cla;"
     "8.17.17.17.rca.gen_cla;9.18.18.18.rca.gen_cla;10.19.19.19.rca.gen_cla]"),
    (lambda: LowerPartOrAdder(8, 0), "LOA(N=8,approx=0)",
     "spec/v1:loa_8_0:w8:t0:d0:[0.7.0.7.rca.fused]"),
    (lambda: LowerPartOrAdder(16, 4), "LOA(N=16,approx=4)",
     "spec/v1:loa_16_4:w16:t4:d0:[4.15.4.15.rca.fused]"),
]

EXPERIMENT_DIGESTS = {
    "fig1": "9f471895cb1bdb069576ee26b1d82fe758601939bf1298a268650ba7d6ce1ccd",
    "fig7": "447873d7738fe41e8d04babcd2e3b449a5b5e9fa4f76ef4a2cad42ed7703faf3",
    "fig8": "856812a8d67554dc588dc28236974759c20a44bc5a38294ec29fb421c0613ca3",
    "fig9": "01e8d2e33fbba4f06efc01ade35e0cbde1ad9b3356d305485df1c4f59bb8f563",
    "table1": "dbe53a1fa27507ac24d9a97c24286248881da9e5c5967eff28c6c64fb3ea46c5",
    "table2": "ec028cb5908b8414e80cc16a84884598201f300ad02f7655a21119d546e27c7b",
    "table3": "f8a54ffb4b180fe41adfd26a1d54d336bc73c3026c6cff35c2fef228e54f8b76",
    "table4": "fb243d6da69a21644933de00e5f0d5b278fcd2b9fd24d48a563810fc4a764aaa",
    "ablation-distributions":
        "c6778b803e0f95dfc8c3e0801947f870ae6af0f65aae83f891526ba128daf89f",
    "ablation-correction":
        "d008933d6744cce818b41b22e3d02ca0248cdc024df4b15565bbc3c97d31f16a",
    "sweep": "eae4c9b70d2b0c6e2ecf755ee8dcb2b44fe79fbfd1807f216f2cb91ea389023d",
}

# (panel, adder) -> paper-model error probability, per application panel.
FIG9_PAPER_EP = {
    ("image_integral", "ACA-I"): 0.0048828125,
    ("image_integral", "ACA-II"): 0.0302734375,
    ("image_integral", "ETAII"): 0.0302734375,
    ("image_integral", "GDA"): 0.00732421875,
    ("image_integral", "GeAr"): 0.0302734375,
    ("image_integral", "RCA"): 0.0,
    ("sad", "ACA-I"): 0.015625,
    ("sad", "ACA-II"): 0.05859375,
    ("sad", "ETAII"): 0.05859375,
    ("sad", "GDA"): 0.0234375,
    ("sad", "GeAr"): 0.05859375,
    ("sad", "RCA"): 0.0,
    ("lpf", "ACA-I"): 0.0078125,
    ("lpf", "ACA-II"): 0.029296875,
    ("lpf", "ETAII"): 0.029296875,
    ("lpf", "GDA"): 0.01171875,
    ("lpf", "GeAr"): 0.029296875,
    ("lpf", "RCA"): 0.0,
}

TABLE4_PAPER_EP = {
    "GeAr(1,9)": 0.0048828125,
    "GeAr(2,8)": 0.00732421875,
    "GeAr(3,7)": 0.013661861419677734,
    "GeAr(4,6)": 0.02192974090576172,
    "GeAr(5,5)": 0.0302734375,
    "GeAr(6,4)": 0.060802459716796875,
    "GeAr(7,3)": 0.12038993835449219,
    "ACA-I": 0.0048828125,
    "ACA-II": 0.0302734375,
    "ETAII": 0.0302734375,
    "GDA(1,9)": 0.0048828125,
    "GDA(2,8)": 0.00732421875,
    "GDA(5,5)": 0.0302734375,
    "RCA": 0.0,
}

SERVED_DIGESTS = [
    ({"adder": {"gear": [12, 4, 4]}, "mode": "exhaustive",
      "backend": "analytic"},
     "3889ef2bcb1a4bbe5cc46768c2fb310a652c95128c909978482181a5dea9805b"),
    ({"adder": {"gear": [12, 4, 4]}, "mode": "monte_carlo", "samples": 5000,
      "seed": 3},
     "a4ea28a1d7e6031f5abbe8d48bf2ae60eeedc199038ff54ced2a98df9f1ed610"),
    ({"adder": {"gear": [20, 3, 7]}, "mode": "exhaustive",
      "backend": "analytic"},
     "1369b68ee3c0383a04d3daf81845b0411aa54f51b24070e14ff1aa2a00a2dc30"),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("make,name,fingerprint", CONSTRUCTORS,
                         ids=[c[1] for c in CONSTRUCTORS])
def test_constructor_name_and_fingerprint(make, name, fingerprint):
    adder = make()
    assert adder.name == name
    assert adder.fingerprint() == fingerprint


def test_every_experiment_is_pinned():
    assert set(EXPERIMENT_DIGESTS) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(EXPERIMENT_DIGESTS))
def test_experiment_json_bytes(name):
    result = EXPERIMENTS[name].run()
    encoded = json.dumps(result.to_json(), sort_keys=True).encode()
    assert _sha256(encoded) == EXPERIMENT_DIGESTS[name]


def test_fig9_paper_error_probabilities():
    got = {(panel, row.adder): row.error_probability
           for panel, rows in run_fig9().items() for row in rows}
    assert got == FIG9_PAPER_EP


def test_table4_paper_error_probabilities():
    got = {row.name: row.error_probability for row in run_table4()}
    assert got == TABLE4_PAPER_EP


@pytest.mark.parametrize("wire,digest", SERVED_DIGESTS,
                         ids=["gear12-analytic", "gear12-sampling",
                              "gear20-partial-analytic"])
def test_served_gear_bytes(wire, digest):
    assert _sha256(canonical_bytes(offline_eval_payload(wire))) == digest
