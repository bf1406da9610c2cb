"""Golden pins and plan-identity checks for the analytic symbolic pass.

The symbolic pass of ``repro.engine.analytic._compile_plan`` discovers the
error support and plans every emission's index moves.  Its output must be
a pure function of the layout: the same error rows in the same order, the
same ops, the same support-cap verdict.  These tests hold it to that in
three ways:

* sha256 pins of ``json.dumps(pmf.to_dict(), sort_keys=True)`` for every
  catalog family at N in {16, 32} (uniform and 0.25 one-density) and every
  GeAr(32, R in {4, 8}, P), recorded from the row-by-row pass;
* an in-test row-by-row reference of the symbolic pass, compared plan for
  plan (errors tuple, ops, index arrays, cap);
* exactness checks on layouts whose errors overflow 32 and 64 bits.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.configspace import enumerate_configs
from repro.engine import EvalRequest, evaluate
from repro.engine import analytic
from repro.engine.analytic import (
    MAX_SUPPORT,
    AnalyticUnsupported,
    adder_error_pmf,
    analytic_layout,
)
from repro.spec.catalog import SPEC_CATALOG, catalog_spec, gear_spec

CAP_MESSAGE = (f"error support exceeds {MAX_SUPPORT} values; layout is too "
               "irregular for the analytic backend")

#: Design points whose support outgrows MAX_SUPPORT (the symbolic support
#: does not depend on the bit profile, so both profiles raise).
OVER_CAP = {"gear_r1p3@32", "aca1_l4@32"}

#: sha256 of the canonical PMF JSON, recorded from the row-by-row pass.
GOLDEN = {
    "aca1_l4@16/d25":
        "c2d7ecb9ec88b22d64ace93adc9ff9a7f2f812797eea5d20d950cbb951928e30",
    "aca1_l4@16/uniform":
        "7f1635b0ad7fbccc1b0ec0405b0a6f1d28251a82ee0896c007fe82cdbb3681b8",
    "aca2_l4@16/d25":
        "7fe08d01939f5101acc2769c25f81e2b23a9dab0da6452ca9f0a13cba37a2acc",
    "aca2_l4@16/uniform":
        "a31fcb1cce82ce5b33894833aef5adb25cd6caca884efe43bb7ed6666a79f273",
    "aca2_l4@32/d25":
        "3cfb7120c15b5fb21e0740dc18c9f0a8a1d155148f21f0d6009cd716ff84ca9c",
    "aca2_l4@32/uniform":
        "ee97a1d90f6b80a290c2875572c6a5071fd773a55b0e5ddd9d1427d21e63001d",
    "cesa_rect@16/d25":
        "de812f06de8b63e80c47ee6f95b221a9b6e3a073dea9a6c2d94c54b08dc07546",
    "cesa_rect@16/uniform":
        "3289c5f69c8c74d4efcf48028b0aeee8bfd07274b1966e85e2b1c3a7bc4e0b44",
    "cesa_rect@32/d25":
        "1d5e78b723addd3ba6474a82edc497703ab80fac6ec5a0d5075b2591d37fa577",
    "cesa_rect@32/uniform":
        "9acc9c3539a4ea71f6b07c10d8daf8df762860a318b19a618bfca92b2127be5e",
    "cla@16/d25":
        "3e34b48b071444b4cf176c18b4462ec91c7be17130eab0b218a39a07769f2d93",
    "cla@16/uniform":
        "3e34b48b071444b4cf176c18b4462ec91c7be17130eab0b218a39a07769f2d93",
    "cla@32/d25":
        "78db3f9d5674c20b328a1083986041765cb9f7ff5cfe97f8289ec22ea3f972dc",
    "cla@32/uniform":
        "78db3f9d5674c20b328a1083986041765cb9f7ff5cfe97f8289ec22ea3f972dc",
    "etaii_l4@16/d25":
        "7fe08d01939f5101acc2769c25f81e2b23a9dab0da6452ca9f0a13cba37a2acc",
    "etaii_l4@16/uniform":
        "a31fcb1cce82ce5b33894833aef5adb25cd6caca884efe43bb7ed6666a79f273",
    "etaii_l4@32/d25":
        "3cfb7120c15b5fb21e0740dc18c9f0a8a1d155148f21f0d6009cd716ff84ca9c",
    "etaii_l4@32/uniform":
        "ee97a1d90f6b80a290c2875572c6a5071fd773a55b0e5ddd9d1427d21e63001d",
    "etaiim_l4c2@16/d25":
        "db8b82d585b5f8df69994efc7d063de8ff2ee224c7523b6cfb53e195aeb9d6cb",
    "etaiim_l4c2@16/uniform":
        "3e6f8c4a310273325fe9c552726c5504a30bffc4240b8f325fb6d4c191bd7214",
    "etaiim_l4c2@32/d25":
        "4622398ecd84e26881405ed8e6495c3576b8fd6d886a149eab7405209fc41a7f",
    "etaiim_l4c2@32/uniform":
        "84581dc6c4c53fccdcfae6de7c90143f96c5acc7e65b2888041bcc0ac15938dd",
    "gda_b2c2@16/d25":
        "7fe08d01939f5101acc2769c25f81e2b23a9dab0da6452ca9f0a13cba37a2acc",
    "gda_b2c2@16/uniform":
        "a31fcb1cce82ce5b33894833aef5adb25cd6caca884efe43bb7ed6666a79f273",
    "gda_b2c2@32/d25":
        "3cfb7120c15b5fb21e0740dc18c9f0a8a1d155148f21f0d6009cd716ff84ca9c",
    "gda_b2c2@32/uniform":
        "ee97a1d90f6b80a290c2875572c6a5071fd773a55b0e5ddd9d1427d21e63001d",
    "gear_32_4_1":
        "b8365c1c55b010fdacb6b86e541b06ef28835db1430be501854d6c148afb0d26",
    "gear_32_4_10":
        "e29ce4cb71dac95750feb008e033a4478c3688cb422bcdaf7cffb9662428ca85",
    "gear_32_4_11":
        "d2733a4a441fce58bffea31ebce68d71df1bdd52d725f536b94b8b6c0b40e0bc",
    "gear_32_4_12":
        "c9be9e23701a62b02f0cc2e79496ba7b815fc64745e6fa0b7bbd1e547ea421ae",
    "gear_32_4_13":
        "04e7636e0c15594ffa5b323f4fd5a5cf490584fb92d68ee3babc8ab0fe29420b",
    "gear_32_4_14":
        "31cd080ba1e5dcc4cc2bef9913c59fffc48f26cf34179c6d3dddb3b0924368e2",
    "gear_32_4_15":
        "3889a74a3a3b4f49919cdabe7befa18c3975214c444b6c67741951ab54b09bda",
    "gear_32_4_16":
        "d2ecac15de42f66d383d70b59cc0d0ff47ae0b830f30c92ec70c98dc351795be",
    "gear_32_4_17":
        "e3cc0f0db9cca467d69f37129b60a1b03af5ea0b3ca5767e4d420323f10ff079",
    "gear_32_4_18":
        "96b0f810ea6f10695a4217fd9abdc15d823ecf8c919fd5b4cafc8725c481b9b3",
    "gear_32_4_19":
        "92387089ff8bc80e3bbbb31ece75544a26f7f50862f89bbcef67db9645800e62",
    "gear_32_4_2":
        "f59501f396f38877228c1f12e5bb74cfc5553d6952a098dd2e0ebc6ea5d9cd0d",
    "gear_32_4_20":
        "b72d40e5d1483da15145854a2e12fdf44c9aa6cc3d4e04c409edfc709a32634e",
    "gear_32_4_21":
        "ce258446b68f47b10630a0331e42c8018fa2c3ca5961a8b58b222b6ec9f1ed93",
    "gear_32_4_22":
        "e9c74373db620d70810ce12a7df315aecfde41821f18f77a2fad978828dedea8",
    "gear_32_4_23":
        "4aa53ff62fcf53b8f4d0ebd307e8192fe416d574b6b9e88f64c28054558092bc",
    "gear_32_4_24":
        "35ee8c9451b99be017edfcf320a55e18b0dfa8e0028783da0d441488023bf7bd",
    "gear_32_4_25":
        "e7a1e45c68f5b6c35fe40018ca7d2e45e34104c03c6babf1d07fd5c2ae638a99",
    "gear_32_4_26":
        "ae6cddae614b1139bf67cbd61193e5d61a6c3fa8b89fd1623a9130204f403a83",
    "gear_32_4_27":
        "0f50f0d2f62d646f8b4018798abf0d9f142ca377871a97ffed3307e9a2e460f5",
    "gear_32_4_3":
        "22c02d833303d1d304bf6f5c7b72a6d103c079d0a09caca709d678d0ad6700cf",
    "gear_32_4_4":
        "ea35f9913d8590acd7c8b4904b6fb0532fb5f16fba37e5a3f66312bd9867b4af",
    "gear_32_4_5":
        "7d52542f73e69ae327399ed2232963c06f98a497ea0c09115826807b56747f84",
    "gear_32_4_6":
        "bc3aca12dc5d939ae227004d68346a7cae45bd8e59dbd89c1242770849c715a6",
    "gear_32_4_7":
        "ec2c9f463b19f16f32c104b1c6f850d91c89badb771a4145f28eed71eda1131e",
    "gear_32_4_8":
        "cb6077d8abdf848133261730f3335e80e668c961512f99d7ceea6c67dcaf86e5",
    "gear_32_4_9":
        "42a125b44860e601d6d672755f5b6a8cd2955a45ae8ee67f7f64be1b080f7c9b",
    "gear_32_8_1":
        "8ff2a6ecbd0b7c279e9765cfe5342adafe9467c79c5c8a4d2c9bb9ff79764f5a",
    "gear_32_8_10":
        "8375e93dc6db606e1c80824ec07e610edccac304f73a27baf62e355d994eacb6",
    "gear_32_8_11":
        "f16dce94b0c581edcd800c133f3b4b77e40e086b74292d3a454636bd97386f01",
    "gear_32_8_12":
        "7611394abe71b232859ff97c7c265f32dc7bf76bf3e361a60e4a4cdd608ab32c",
    "gear_32_8_13":
        "e4612df8145f444425a224e70dd8705ccad46d1e8727febad7f95b0d13d0ada9",
    "gear_32_8_14":
        "b095d73622d8f4b2bb28d5b854780a1967ac30b9efd79588a03e80eb11e6341d",
    "gear_32_8_15":
        "20768bf868e72da742ca7e4364bc29cf08f3803ad13e6e9374792f36385749b4",
    "gear_32_8_16":
        "66c3843a5e92fe120e8935e098a16590318d693050efaacb8ea83da2f8dcc8c6",
    "gear_32_8_17":
        "cd60d77cb0d4a8824260f20129fa37e74410e1b91e9d8d2723efbc48f0715cd9",
    "gear_32_8_18":
        "50d1b764afb3f8158bf3134535d0f9518315a60fc538a9851d7e7cf602950ddd",
    "gear_32_8_19":
        "54dea6b9697e417829721324422386a65c8421c0d948d59615f8b30235780680",
    "gear_32_8_2":
        "d8bfbe5ea1690753b98349dc15b81b52555f6d79795c77d3bb3cb71f9f96517c",
    "gear_32_8_20":
        "35ee8c9451b99be017edfcf320a55e18b0dfa8e0028783da0d441488023bf7bd",
    "gear_32_8_21":
        "e7a1e45c68f5b6c35fe40018ca7d2e45e34104c03c6babf1d07fd5c2ae638a99",
    "gear_32_8_22":
        "ae6cddae614b1139bf67cbd61193e5d61a6c3fa8b89fd1623a9130204f403a83",
    "gear_32_8_23":
        "0f50f0d2f62d646f8b4018798abf0d9f142ca377871a97ffed3307e9a2e460f5",
    "gear_32_8_3":
        "073fe9dce0a7a1e15e67cd1a7bd19801bdf752f0a83ae781c11a4cab195a4fe3",
    "gear_32_8_4":
        "e2a56dadd9eeef3a86db70a360e570ce3bc26360c6064290653ac5913bb12e82",
    "gear_32_8_5":
        "6fc0a49240207794ed39504ac711ee49209e20da9ae0a6973eb98feeb32b123b",
    "gear_32_8_6":
        "f8392a902f62d4df19ab9f8ba62394c67db8f540b17ce6ebf069642df15b1df3",
    "gear_32_8_7":
        "dbed9a4575e24a3cb6dfdb831e31695cc8e506187ad2617df5e2165770cd25e7",
    "gear_32_8_8":
        "7edcb16ab9daec9e2ca62333cdf4827e08f1c115f00ce8fa845e85c0d8555593",
    "gear_32_8_9":
        "5ec38f44956fe8a6d00828601184ceaf50a3e5a82ed8e3e7640c45d20a99d540",
    "gear_r1p3@16/d25":
        "c2d7ecb9ec88b22d64ace93adc9ff9a7f2f812797eea5d20d950cbb951928e30",
    "gear_r1p3@16/uniform":
        "7f1635b0ad7fbccc1b0ec0405b0a6f1d28251a82ee0896c007fe82cdbb3681b8",
    "gear_r2p2@16/d25":
        "7fe08d01939f5101acc2769c25f81e2b23a9dab0da6452ca9f0a13cba37a2acc",
    "gear_r2p2@16/uniform":
        "a31fcb1cce82ce5b33894833aef5adb25cd6caca884efe43bb7ed6666a79f273",
    "gear_r2p2@32/d25":
        "3cfb7120c15b5fb21e0740dc18c9f0a8a1d155148f21f0d6009cd716ff84ca9c",
    "gear_r2p2@32/uniform":
        "ee97a1d90f6b80a290c2875572c6a5071fd773a55b0e5ddd9d1427d21e63001d",
    "gear_r2p4@16/d25":
        "9ace4f4e6ee356d2ff0a5e26d80cf1116f596218cbfeb6aadbb7e999e14a0e92",
    "gear_r2p4@16/uniform":
        "6855a77d19dabdd5ad8514c02442781203b74cab687e2e5b84dcd2b95d9eea47",
    "gear_r2p4@32/d25":
        "15e1d9ff324f054c428c9a94b8f0cc761ba61668b9ccf709ec271113cf52c72c",
    "gear_r2p4@32/uniform":
        "170dcd3f3d145baa06890544ce6dd0f4589b50b959aac0cbe9aa371a2e380a32",
    "hetero@16/d25":
        "b4ff7a3d16d26de99671673523599a201a3278f501729d705085f4e378b3eb42",
    "hetero@16/uniform":
        "1f8b9d8478e072c4c8f54064de21982decbe8b8e4332c1242e1565cff090fa50",
    "hetero@32/d25":
        "41dc5998f8714d3202068d13dc148161158bfd29e4cd2c2444f619d9e722331e",
    "hetero@32/uniform":
        "397bd17e57b27b4121370c3ba113daf309f29c32187bbeefda6b7e93613bc791",
    "hoeraa@16/d25":
        "9a80dbfb007b3631ee52697e353fdc24472c02866fcf34ecb5b3357c1f0a2a14",
    "hoeraa@16/uniform":
        "097ffe11105761a17125d0928850b511d4ad65698ab99312fd3802c14706a812",
    "hoeraa@32/d25":
        "e420126293a58dfff784aa8765eefa6c9ce099479d006772d14dabb8048c700e",
    "hoeraa@32/uniform":
        "2d920638db12a265bb7407b666bc1892a378b4299dac3d838461a93de84af6a2",
    "ksa@16/d25":
        "3e34b48b071444b4cf176c18b4462ec91c7be17130eab0b218a39a07769f2d93",
    "ksa@16/uniform":
        "3e34b48b071444b4cf176c18b4462ec91c7be17130eab0b218a39a07769f2d93",
    "ksa@32/d25":
        "78db3f9d5674c20b328a1083986041765cb9f7ff5cfe97f8289ec22ea3f972dc",
    "ksa@32/uniform":
        "78db3f9d5674c20b328a1083986041765cb9f7ff5cfe97f8289ec22ea3f972dc",
    "loa_half@16/d25":
        "eb560e5725d806c7be3c141ea8ab49ac09a1b8fa2e04086c587d37de555ab2c4",
    "loa_half@16/uniform":
        "fa7b4a4a01e15abf4aa0e4ff75da411897076b7627eef7a339e8660f5a5d82de",
    "loa_half@32/d25":
        "52a2678641a925f69f7caa314d6d30bbe8d1f9a799e482a1c70733fd63cbb658",
    "loa_half@32/uniform":
        "72053d8ec6b2fc100e8635c1bdfab9daaf60f74becfbe302c6b30a41aa272cab",
    "loa_static@16/d25":
        "eb560e5725d806c7be3c141ea8ab49ac09a1b8fa2e04086c587d37de555ab2c4",
    "loa_static@16/uniform":
        "fa7b4a4a01e15abf4aa0e4ff75da411897076b7627eef7a339e8660f5a5d82de",
    "loa_static@32/d25":
        "52a2678641a925f69f7caa314d6d30bbe8d1f9a799e482a1c70733fd63cbb658",
    "loa_static@32/uniform":
        "72053d8ec6b2fc100e8635c1bdfab9daaf60f74becfbe302c6b30a41aa272cab",
    "rca@16/d25":
        "3e34b48b071444b4cf176c18b4462ec91c7be17130eab0b218a39a07769f2d93",
    "rca@16/uniform":
        "3e34b48b071444b4cf176c18b4462ec91c7be17130eab0b218a39a07769f2d93",
    "rca@32/d25":
        "78db3f9d5674c20b328a1083986041765cb9f7ff5cfe97f8289ec22ea3f972dc",
    "rca@32/uniform":
        "78db3f9d5674c20b328a1083986041765cb9f7ff5cfe97f8289ec22ea3f972dc",
}


def _digest(pmf) -> str:
    text = json.dumps(pmf.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _profile(name: str, width: int):
    return None if name == "uniform" else (0.25,) * width


CATALOG_CASES = [(key, n, prof) for key in SPEC_CATALOG for n in (16, 32)
                 for prof in ("uniform", "d25")]
GEAR_CASES = [(r, cfg.p) for r in (4, 8)
              for cfg in enumerate_configs(32, r=r, allow_partial=True)]


def test_golden_table_covers_every_case():
    expected = {f"{k}@{n}/{p}" for k, n, p in CATALOG_CASES
                if f"{k}@{n}" not in OVER_CAP}
    expected |= {f"gear_32_{r}_{p}" for r, p in GEAR_CASES}
    assert set(GOLDEN) == expected


@pytest.mark.parametrize("key,width,profile", CATALOG_CASES)
def test_catalog_pmf_matches_golden(key, width, profile):
    model = catalog_spec(key, width).to_model()
    bit_one = _profile(profile, width)
    if f"{key}@{width}" in OVER_CAP:
        with pytest.raises(AnalyticUnsupported) as info:
            adder_error_pmf(model, bit_one=bit_one)
        assert str(info.value) == CAP_MESSAGE
        return
    pmf = adder_error_pmf(model, bit_one=bit_one)
    assert _digest(pmf) == GOLDEN[f"{key}@{width}/{profile}"]


@pytest.mark.parametrize("r,p", GEAR_CASES)
def test_gear32_pmf_matches_golden(r, p):
    model = gear_spec(32, r, p, allow_partial=True).to_model()
    assert _digest(adder_error_pmf(model)) == GOLDEN[f"gear_32_{r}_{p}"]


# -- plan identity against the row-by-row reference -------------------------


def reference_plan(width, windows, truncation, bit_one, max_support,
                   static_kind=None, rectified=()):
    """The symbolic pass one Python row at a time (the reference).

    Same contract as ``analytic._compile_plan``: per error value an upper
    bound on its trailing propagate run, new rows appended in the order
    the emissions first reach them.
    """
    schedule = analytic._emission_schedule(windows, truncation, rectified)
    if not schedule and truncation == 0:
        return ((0,), (), 1, 4)
    cap = max((t for entries in schedule.values() for t, _ in entries),
              default=0)
    cap = max(cap, 1)
    if cap & (cap - 1):
        cap = 1 << cap.bit_length()
    n_states = 2 * (cap + 1)
    errors, index, maxrun, ops = [0], {0: 0}, [-1], []

    def row(e):
        r = index.get(e)
        if r is None:
            if len(errors) >= max_support:
                raise AnalyticUnsupported(
                    f"error support exceeds {max_support} values; layout is "
                    "too irregular for the analytic backend")
            r = index[e] = len(errors)
            errors.append(e)
            maxrun.append(-1)
        return r

    def matrix(alpha, g, with_generate=True):
        return analytic._cached_segment_matrix(n_states, cap, alpha, g,
                                               with_generate)

    def advance_gap(start, stop):
        i = start
        while i < stop:
            j = i + 1
            while j < stop and bit_one[j] == bit_one[i]:
                j += 1
            g = j - i
            ops.append(("mat", matrix(bit_one[i], g)))
            for r in range(len(maxrun)):
                grown = maxrun[r] + g if maxrun[r] >= 0 else g - 1
                maxrun[r] = min(cap, grown)
            i = j

    def emit(threshold, delta, keep_from, lo, hi):
        # Rows whose run reaches `threshold` move the state columns
        # [lo, hi) to error + delta; runs >= keep_from stay put.
        n0 = len(errors)
        hot = [r for r in range(n0) if maxrun[r] >= threshold]
        if not hot:
            return
        pre = [maxrun[r] for r in hot]
        for r in hot:
            if maxrun[r] < keep_from:
                maxrun[r] = threshold - 1
        dst = []
        for r, peak in zip(hot, pre):
            d = row(errors[r] + delta)
            maxrun[d] = max(maxrun[d], min(peak, keep_from - 1))
            dst.append(d)
        ops.append(("emit", np.asarray(hot, dtype=np.intp),
                    np.asarray(dst, dtype=np.intp), lo, hi))

    pos = 0
    for bit in sorted(set(schedule) | set(range(min(truncation, width)))):
        if bit < truncation:
            if bit > pos:
                advance_gap(pos, bit)
            delta = 1 << bit
            if static_kind == "hoeraa" and bit == truncation - 1:
                delta = 1 << (bit + 1)
            alpha = bit_one[bit]
            n0 = len(errors)
            dst = [row(errors[r] - delta) for r in range(n0)]
            ops.append(("tbit", matrix(alpha, 1, with_generate=False), n0,
                        np.asarray(dst, dtype=np.intp), alpha * alpha))
            for r in range(n0):
                maxrun[r] = min(cap, maxrun[r] + 1) if maxrun[r] >= 0 else -1
            for d in dst:
                maxrun[d] = max(maxrun[d], 0)
        else:
            advance_gap(pos, bit + 1)
        entries = schedule.get(bit, ())
        j = 0
        while j < len(entries):
            threshold, delta = entries[j]
            if j + 1 < len(entries):
                t2, d2 = entries[j + 1]
                if d2 == -delta and t2 <= threshold:
                    j += 2
                    if t2 < threshold:
                        emit(t2, d2, threshold, cap + 1 + t2,
                             cap + 1 + threshold)
                    continue
            j += 1
            emit(threshold, delta, cap + 1, cap + 1 + threshold, n_states)
        pos = bit + 1
    while ops and ops[-1][0] == "mat":
        ops.pop()
    return (tuple(errors), tuple(ops), cap, n_states)


def _layout_args(model, bit_one=None):
    width, windows, truncation, static_kind, rectified = \
        analytic_layout(model)
    profile = analytic._normalize_profile(width, bit_one)
    return (width, tuple(windows), truncation, profile, static_kind,
            rectified)


def _plan_or_verdict(compile_plan, args, max_support):
    width, windows, truncation, profile, static_kind, rectified = args
    try:
        return compile_plan(width, windows, truncation, profile, max_support,
                            static_kind, rectified)
    except AnalyticUnsupported as exc:
        return str(exc)


def assert_same_plan(got, want):
    if isinstance(want, str):
        assert got == want
        return
    errors, ops, cap, n_states = got
    assert errors == want[0]
    assert all(type(e) is int for e in errors)
    assert (cap, n_states) == want[2:]
    assert len(ops) == len(want[1])
    for op, ref in zip(ops, want[1]):
        assert op[0] == ref[0] and len(op) == len(ref)
        for a, b in zip(op[1:], ref[1:]):
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            else:
                assert type(a) is type(b) and a == b


def _ramp(width):
    return tuple((i + 1) / (width + 1) for i in range(width))


PLAN_CASES = [(key, n, prof) for key in SPEC_CATALOG for n in (8, 16)
              for prof in ("uniform", "d25", "ramp")]


@pytest.mark.parametrize("key,width,profile", PLAN_CASES)
def test_plan_matches_row_by_row_reference(key, width, profile):
    model = catalog_spec(key, width).to_model()
    bit_one = _ramp(width) if profile == "ramp" else _profile(profile, width)
    args = _layout_args(model, bit_one)
    want = _plan_or_verdict(reference_plan, args, MAX_SUPPORT)
    assert_same_plan(_plan_or_verdict(analytic._compile_plan, args,
                                      MAX_SUPPORT), want)
    if isinstance(want, str):
        return
    # Caps that bite part-way through an emission raise the same verdict.
    n = len(want[0])
    for max_support in sorted({1, n // 3, n // 2, n - 1} - {0}):
        assert_same_plan(
            _plan_or_verdict(analytic._compile_plan, args, max_support),
            _plan_or_verdict(reference_plan, args, max_support))


@pytest.mark.parametrize("r,p", GEAR_CASES)
def test_gear32_plan_matches_row_by_row_reference(r, p):
    args = _layout_args(gear_spec(32, r, p, allow_partial=True).to_model())
    assert_same_plan(
        _plan_or_verdict(analytic._compile_plan, args, MAX_SUPPORT),
        _plan_or_verdict(reference_plan, args, MAX_SUPPORT))


# -- support cap, dtype rule, over-cap verdict -------------------------------


def test_support_cap_boundary():
    args = _layout_args(catalog_spec("gear_r2p2", 16).to_model())
    width, windows, truncation, profile, static_kind, rectified = args
    plan = analytic._compile_plan(width, windows, truncation, profile,
                                  MAX_SUPPORT, static_kind, rectified)
    n = len(plan[0])
    assert n > 2
    exact_fit = analytic._compile_plan(width, windows, truncation, profile,
                                       n, static_kind, rectified)
    assert_same_plan(exact_fit, plan)
    with pytest.raises(AnalyticUnsupported) as info:
        analytic._compile_plan(width, windows, truncation, profile, n - 1,
                               static_kind, rectified)
    assert str(info.value) == (
        f"error support exceeds {n - 1} values; layout is too irregular "
        "for the analytic backend")


def test_wide_errors_stay_exact_python_ints():
    # A 64-bit miss delta: the schedule's summed |delta| is 2**64, past
    # what int64 can hold, so the pass must carry Python ints.
    model = gear_spec(96, 40, 24, allow_partial=True).to_model()
    pmf = adder_error_pmf(model)
    assert pmf.support == (-18446744073709551616, 0)
    assert all(type(e) is int for e in pmf.support)
    assert pmf.probabilities == (1.1641532179982976e-10, 0.9999999998835847)
    assert_same_plan(
        _plan_or_verdict(analytic._compile_plan, _layout_args(model),
                         MAX_SUPPORT),
        _plan_or_verdict(reference_plan, _layout_args(model), MAX_SUPPORT))


def test_cesa_rect_64_errors_past_32_bits():
    pmf = adder_error_pmf(catalog_spec("cesa_rect", 64).to_model())
    assert len(pmf.support) == 1597
    assert min(pmf.support) == -4581298448  # a 33-bit magnitude
    assert all(type(e) is int for e in pmf.support)
    assert _digest(pmf) == (
        "d4855ebee8a6bb5bd918eb3ef63f69f458ff25e1023c3cfd1a3d9e5f1db56fa8")


def test_over_cap_verdict_is_remembered_per_adder(monkeypatch):
    calls = []
    compile_plan = analytic._compile_plan

    def counting(*args, **kwargs):
        calls.append(args)
        return compile_plan(*args, **kwargs)

    monkeypatch.setattr(analytic, "_compile_plan", counting)
    model = catalog_spec("gear_r1p3", 32).to_model()
    for _ in range(2):
        with pytest.raises(AnalyticUnsupported) as info:
            evaluate(EvalRequest.exhaustive(model, backend="auto"))
        assert str(info.value) == CAP_MESSAGE
    assert len(calls) == 1
    # The verdict is keyed like the plans: another cap compiles afresh.
    with pytest.raises(AnalyticUnsupported):
        adder_error_pmf(model, max_support=MAX_SUPPORT - 1)
    assert len(calls) == 2
