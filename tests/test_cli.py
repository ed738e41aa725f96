import ast
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitfix.bounds import BoundReport, CutoffReport, PowerSumBound
from digitfix.cli import main
from digitfix.digitops import group_blocks
from digitfix.funcatalog import evaluate, parse_spec
from digitfix.search import FAMILY_TABLE, Hits


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# the fields of a search's parameters that run_search reads
_PARAM_FIELDS = ("base", "k", "fn", "engine", "cap", "include_zero", "max_order", "digits")


def callees(monkeypatch, argv):
    """Run main on argv with every callee of a command replaced by a recorder.

    Returns the calls the command made, as (callee, arguments...) tuples, its
    exit code and its stdout.  A search's parameters are recorded field by
    field, "absent" for a field the parsed arguments lack.
    """
    import digitfix.cli as cli

    calls = []

    def stub(name, result, describe=lambda *args: args):
        def record(*args):
            calls.append((name, *describe(*args)))
            return result

        monkeypatch.setattr(cli, name, record)

    stub("run_search", Hits([], 0),
         lambda family, p: (family, tuple(getattr(p, f, "absent") for f in _PARAM_FIELDS)))
    stub("hardy_bound", BoundReport(0, 0, 0, ()), lambda spec, *rest: (spec.text, *rest))
    for name in ("wells_cutoff", "dudeney_cutoff"):
        stub(name, CutoffReport(0, "stub", ()), lambda spec, *rest: (spec.text, *rest))
    stub("powersum_bound", PowerSumBound(0, 0))
    stub("piezas_numerals", ("1", "2", 3))
    stub("vitalis_generate", (1, 2, 3, 4))
    stub("corpus_check", SimpleNamespace(results=(), mismatches=()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return calls, code, out.getvalue()


def records(stdout):
    return [json.loads(line) for line in stdout.splitlines()]


class TestSearchCommands:
    def test_factorion_search_text(self, capsys):
        code, out, _ = run(capsys, "search", "hardy", "--fn", "factorial", "--base", "10")
        assert code == 0
        for needle in ("1", "2", "145", "40585", "2540160"):
            assert needle in out

    def test_factorion_search_records(self, capsys):
        code, out, _ = run(
            capsys, "search", "hardy", "--fn", "factorial", "--format", "records"
        )
        assert code == 0
        recs = records(out)
        assert [r["value"] for r in recs] == [1, 2, 145, 40585]
        assert all(r["bound_used"] == 2540160 for r in recs)
        assert set(recs[0]) == {"family", "base", "k", "fn", "value", "decomposition", "bound_used"}
        assert recs[3]["decomposition"] == [120, 40320, 120, 1, 24]

    def test_bound_hardy_text(self, capsys):
        code, out, _ = run(capsys, "bound", "hardy", "--fn", "pow:5", "--base", "10")
        assert code == 0
        assert "59049" in out and "354294" in out

    def test_conflicting_engine_and_width(self, capsys):
        code, _, err = run(
            capsys, "search", "hardy", "--fn", "pow:3", "--base", "10", "--k", "9",
            "--engine", "multiset",
        )
        assert code == 2
        assert "multiset" in err

    def test_bad_function_spec(self, capsys):
        code, _, err = run(capsys, "search", "hardy", "--fn", "nope")
        assert code == 2
        assert "nope" in err

    def test_unknown_flag_usage_error(self, capsys):
        assert run(capsys, "search", "hardy", "--fn", "pow:3", "--bogus")[0] == 2

    def test_unsupported_function_exit_code(self, capsys):
        code, _, err = run(capsys, "search", "dudeney", "--fn", "fib")
        assert code == 3
        assert "cap" in err

    def test_wells_reverse_requires_cap(self, capsys):
        assert run(capsys, "search", "wells-reverse", "--fn", "pow:5")[0] == 2

    @pytest.mark.parametrize("fn", ["subfactorial", "poly:1,-1"])
    def test_wells_reverse_without_hits(self, capsys, fn):
        # F(1) = 0: an image of 0 has no digits, so it is no hit
        code, out, err = run(capsys, "search", "wells-reverse", "--fn", fn, "--cap", "100")
        assert (code, out, err) == (0, "0 hit(s), search ceiling 100\n", "")

    def test_powersum_refuses_an_exponent_below_two(self, capsys):
        code, out, err = run(capsys, "search", "powersum", "--fn", "pow:1")
        assert (code, out) == (2, "")
        assert err == "error: power-sum exponent must be at least 2, got 1\n"

    def test_armstrong(self, capsys):
        code, out, _ = run(capsys, "search", "armstrong", "--base", "3", "--format", "records")
        assert code == 0
        assert [r["value"] for r in records(out)] == [5, 8, 17]

    def test_reversal_records(self, capsys):
        code, out, _ = run(capsys, "search", "reversal", "--digits", "4", "--format", "records")
        assert code == 0
        recs = records(out)
        assert [(r["value"], r["decomposition"][0]) for r in recs] == [(8712, 4), (9801, 9)]

    def test_reversal_thirty_digits(self, capsys):
        code, out, _ = run(capsys, "search", "reversal", "--digits", "30", "--format", "records")
        assert code == 0
        recs = records(out)
        assert len(recs) == 754
        assert all(r["value"] == r["decomposition"][0] * r["decomposition"][1] for r in recs)

    def test_reversal_with_too_many_hits_refused(self, capsys):
        # 2 F(99) hits of 200 digits (Sloane); counted, never listed
        fib = [0, 1]
        while len(fib) < 100:
            fib.append(fib[-1] + fib[-2])
        code, out, err = run(capsys, "search", "reversal", "--digits", "200")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f" {2 * fib[99]} " in err

    def test_powersum_needs_power_fn(self, capsys):
        assert run(capsys, "search", "powersum", "--fn", "factorial")[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["powersum", "--fn", "pow:3"],
            ["powersum", "--fn", "pow:3", "--engine", "scan"],
            ["dudeney", "--fn", "pow:3", "--engine", "preimage"],
            ["dudeney", "--fn", "pow:3"],
            ["hardy", "--fn", "pow:3"],
            ["wells", "--fn", "factorial"],
        ],
    )
    def test_cap_below_one_exits_two_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, "search", *argv, "--cap", "-5")
        assert code == 2
        assert out == ""
        assert err == "error: cap must be at least 1, got -5\n"

    def test_zero_pow_zero_flag(self, capsys):
        code, out, _ = run(
            capsys, "search", "hardy", "--fn", "selfpow:0", "--engine", "multiset",
            "--format", "records",
        )
        assert code == 0
        assert [r["value"] for r in records(out)] == [1, 3435, 438579088]

    def test_preimage_dudeney_runs_the_scan_for_any_fn(self, capsys):
        # both engine names run one walk: capped, factorial finds its hits;
        # uncapped, it has no digit-sum cutoff
        argv = ("search", "dudeney", "--fn", "factorial")
        capped = run(capsys, *argv, "--engine", "preimage", "--cap", "100")
        assert capped == run(capsys, *argv, "--cap", "100")
        assert capped[0] == 0 and capped[1].endswith("2 hit(s), search ceiling 100\n")
        code, out, err = run(capsys, *argv, "--engine", "preimage")
        assert (code, out) == (3, "")
        assert err == "error: factorial grows too fast for a digit-sum cutoff; supply a cap\n"

    def test_capped_wells_walks_to_the_cap_where_no_cutoff_is_derived(self, capsys):
        # deriving the cutoff of F(n) = 2 - n evaluates F(3) = -1, which is no
        # natural number; a cap of 1 never needs it
        code, out, err = run(capsys, "search", "wells", "--fn", "poly:-1,2", "--cap", "1")
        assert (code, err) == (0, "")
        assert out == "1: F(1) has 1 digit(s)\n1 hit(s), search ceiling 1\n"

    @pytest.mark.parametrize("order", ["-3", "0", "1"])
    def test_armstrong_max_order_below_two_exits_two(self, capsys, order):
        code, out, err = run(capsys, "search", "armstrong", "--max-order", order)
        assert code == 2
        assert out == ""
        assert err == f"error: max_order must be at least 2, got {order}\n"


# One argv per search family and engine, frozen from the seven hand-written
# runners the generic search runner replaced, and one per bound, family and
# corpus command, frozen before the runners handed their output to main:
# (argv, format, exit code, sha256 of stdout).
GOLDEN = [
    ("search hardy --fn factorial", "text", 0, "32a342b1a874d193be6ba3b10323e0028f29b0c7c82c30a35730c108ec6d53dc"),
    ("search hardy --fn factorial", "records", 0, "105a7043e10339ed7c72d8b24c14bdb1f5b2495fccfbcdd989fa75901777a89c"),
    ("search hardy --fn pow:3 --engine multiset --cap 1000", "text", 0, "a64cd3546b2ace27209aaf5534585126c5db64852a71cc81db5985e55ca42bf5"),
    ("search hardy --fn pow:3 --engine multiset --cap 1000", "records", 0, "3bd3c1868a4d5a77ae8ea4cca4935baf300729d808b485e9598a87492ace9ffb"),
    ("search hardy --fn selfpow:0 --engine multiset", "text", 0, "68f36581b4037b6831c21ee63abb4d91914a33a6deeac08080c48caf8370ffc1"),
    ("search hardy --fn selfpow:0 --engine multiset", "records", 0, "7e0ab7433bd705396525d2fca552b56706ae2d182013d245c8e70ee3b0f8288f"),
    ("search armstrong --base 4", "text", 0, "71d14ecba89932b66a32551f554fd60426f4f96d87406bbeab38e0aa30947218"),
    ("search armstrong --base 4", "records", 0, "4359bae74fb3c35951e8ec7c101ed84c91e59036f4d07d01c5bd951c9d9965ee"),
    ("search wells --fn factorial", "text", 0, "1bd93017484bf05397d93474f54a1ed282fccaf1a4093d9f83ed6dc4ed2e4814"),
    ("search wells --fn factorial", "records", 0, "007706ea7a36f5f6075d7dba24cfc33c1b7594fbef318ab992ab2a3dfc6adf60"),
    ("search wells-reverse --fn pow:5 --cap 100000", "text", 0, "2f764ecd9882998a624d17a2dc57d1f2722f895da809f8ec99358bad0748c4ee"),
    ("search wells-reverse --fn pow:5 --cap 100000", "records", 0, "c74e1d825b7293418943f23277fc950bf90ba707f09ee1f955a1ca8b286c7e97"),
    ("search dudeney --fn pow:3", "text", 0, "ab11c912f4bbdd17cc0cab06f572a722fb6ab7480e49b3b61f9d7e53b9fe60c4"),
    ("search dudeney --fn pow:3", "records", 0, "bef8770cbad7730da70e29c41ea2ecb824e2b6d933357e8fccec02e87f93e17f"),
    ("search dudeney --fn pow:3 --engine preimage --cap 20", "text", 0, "17f49f872c9336c3bb373ad69b4a46676d011db4b2e3d9a7facf97b2a4b1e2bc"),
    ("search dudeney --fn pow:3 --engine preimage --cap 20", "records", 0, "42a424a30367af056ac04005ca1e9568b75dc231cfd1c1994f62b83ad1702d9f"),
    ("search powersum --fn pow:3 --engine scan", "text", 0, "29029fc468300e9c543dc88e58987f953265cae47f17c63b948b9a931df83450"),
    ("search powersum --fn pow:3 --engine scan", "records", 0, "894fdd129150a29c228e02541a4840718d6619fe4f3b75c0518eedd1f3853bc4"),
    ("search reversal --digits 6", "text", 0, "5862f8c35b8c078e132c9b63370a29603c5161ab581248ae9d740779c09cd243"),
    ("search reversal --digits 6", "records", 0, "601304d33f39dd2a58fe8437505f217913da4e209721fe6f9cb1128f7f80861b"),
    ("bound hardy --fn pow:5", "text", 0, "74815a7434ee1a1f831eb1da6c946c049a1b80f400cbe55ca096a7d3e797284e"),
    ("bound hardy --fn pow:5", "records", 0, "08636de44b534ab3818b43961cacdf8373619f0e54162ae13e4d1497c4ab347c"),
    ("bound wells --fn factorial", "text", 0, "1e30b9ea541ced56b98bff6f4f74910e72086bacd70b6c9bdacb2460f4ee59e7"),
    ("bound wells --fn factorial", "records", 0, "ba068410cdf4174c68e9a4dbae9e6067216bb3d71c2323ae491d15f2dd80c418"),
    ("bound dudeney --fn pow:3", "text", 0, "d19af39b43fb52773aabed2f43d7f99885dcba5ae2f6c36ee6ed9dcda16d41c6"),
    ("bound dudeney --fn pow:3", "records", 0, "4a6e59bb2df4ff3c11dfb9a0f41a7ae23086fd8ea006e5a6b25972baa14d3f76"),
    ("bound powersum --fn pow:3", "text", 0, "d4e9f1226074fa3ab67a8709177f28515ccf65927547020fc64804ce29f4010a"),
    ("bound powersum --fn pow:3", "records", 0, "9cf6a5ca9484281f8e989016df9b980739900f89915058a0300c3cd17fd474d6"),
    ("family piezas --fermat-index 3 --t 1", "text", 0, "3badb5cb7f7554d614fa4ac1e9056789062fa97127ebdc1bcb7fd34c022dde54"),
    ("family piezas --fermat-index 3 --t 1", "records", 0, "3addd44a9db66e3131a69547b67bab76683aa9413eae3e134c73bcaa9b295971"),
    ("family vitalis -l 50", "text", 0, "7ed132c95d675ecdbac28a832fbf9a6a364c27abd14e9afe02d678cb31e1e15c"),
    ("family vitalis -l 50", "records", 0, "a16450e882cd1b9acb58107fdd82ffba0d28b02c10991363f5f916866fb73bb8"),
    ("corpus check", "text", 0, "1047b805128daef644f2b3d07ae7edd1ffbafa37d64f29eb148814044ab0d217"),
    ("corpus check", "records", 0, "c8be6b6cdc0a0e9b7499c2fd475ac1c35fa7a07a26485c4f65c446d5de191d2c"),
]


@pytest.mark.parametrize("argv, fmt, exit_code, digest", GOLDEN, ids=[f"{a} {f}" for a, f, _, _ in GOLDEN])
def test_output_is_frozen(capsys, argv, fmt, exit_code, digest):
    code, out, _ = run(capsys, *argv.split(), "--format", fmt)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# `bound wells` for every catalog spec, selfpow:0, fib and one polynomial at
# bases 2, 10 and 16, frozen before the seven branches of wells_cutoff shared
# one exit: both certificate sides, and expbase on each (c >= b and c < b):
# (fn, base, sha256 of text stdout, sha256 of records stdout).
GOLDEN_WELLS = [
    ("factorial", 2, "50c15c3d789fa7c1cd959c007c2d5fabed7e179eb043bb36c0a00e15061c452d", "cf9aa3a92b0d37cfd3d033fef2fe53bdc217731db6ed5010b58a7ec2ee3a8182"),
    ("factorial", 10, "1e30b9ea541ced56b98bff6f4f74910e72086bacd70b6c9bdacb2460f4ee59e7", "ba068410cdf4174c68e9a4dbae9e6067216bb3d71c2323ae491d15f2dd80c418"),
    ("factorial", 16, "b84cb6a0935e2fc04843d568ab0390167bbbceefca6ba59bfd11de3b7be4d21d", "e82dbe327f68b876a8f2bc3d5690055b6a6d85c4d493a4b687bd439cf520bf53"),
    ("subfactorial", 2, "6e989cfdd03b4db33c1b1e5e3efe69f1c21d74a5c3b38b4abd122653151d2711", "3f628b00ee93199fa7ba417cac135e6b3669daae530f72b64250a72c1870417e"),
    ("subfactorial", 10, "ba2131cc9c0a8b8b0ace71def6e523efe636a6b07a75467b32d7a0719ac802bd", "7790171bc83125293606e261e1d89397660e7e830c744b7d38104d9c07a8d93f"),
    ("subfactorial", 16, "915c4a8aa5908e66a9575edfe464ccb6291337470500a7a33070e9eff7d9f2f0", "5a55ae88586efd02bdcd7b771e9fe70190a16f9a7d44124c624d7bb88064954c"),
    ("pow:2", 2, "e3788d464eb390d46eee205fab946fcfa871f15cc9f715fa89b581fd951437e0", "07bba578145fe1d9fbad560b012b079dc384e829646f98433a7e21b2128e8577"),
    ("pow:2", 10, "39d963dd324e5fc55739d799d4b40d293b94782ff245a582269c0f4c2c9f70bf", "82304a0d5183b15f1c7ed706f263ac43774e16a98faafaba89c8a05a3ded41eb"),
    ("pow:2", 16, "22ff6cbc6baae1e4c2364059e1ba4e372afed7ad33a5655c17cd35134c53e7f7", "dc617e66d9080e7a97ff8a3f6865c442500c1e8f216ea013b6ef2a9df9c5399c"),
    ("pow:3", 2, "f293d5ae5db16ae238a5d456c24463cdc9dc2e472d57af625fd8471078fd39cc", "7704eabf19595e9c05a7d1b316b7793a5c5bc7bdbff90ec1d2cbd473c375ef6a"),
    ("pow:3", 10, "a9c5dcc3a8b189a90ab5bf023b114e741b23c1f5d8f251bd710a7985f8a65fc5", "3abdaf986285691b1cb7c9b59727e50c915c157eefe54ff0b86e58ba69d433fe"),
    ("pow:3", 16, "8be2991ea16d2f569128021a40295d600c2d4b16fa144ea6499d0e012197e140", "dd3d910805d013e8ad35ad237a49b42a4881e291a6b84d4a02cf0a1b6d4ce627"),
    ("pow:4", 2, "f261af4c5280cba530fc0b995dfcb437b7517755aa1f9b4670c83d1086ec1df3", "685b5c984785e4b4bbc044e1aec867d406e27fbf791467e37f8d16a59ceb3a96"),
    ("pow:4", 10, "c88fc6e69a026b33392a6bc02cf45c8f51d41ca48402e73930007b9e740d69ae", "8f2cee39157aed5fa7eb9c489a67a00efb5c069b0f530c49ef35bc3fc65d90ff"),
    ("pow:4", 16, "758717f06d0663ff256758b7049897fa287cf57bd091d8424b3ed10509791306", "403d9ebe6a8ba2590304ae050e7bdf1b3b51c4d750be038a174154e105edcae0"),
    ("pow:5", 2, "66637fa251a236d08d9bbde9590d2d302c06244dfeaf951e22347c1aa7e1791f", "5c3a46a6a65605345b968d47f3b9b3ab29e28e5699cebd081e3bce01316be4f4"),
    ("pow:5", 10, "5f8f8ade5f92fc873aa9ecd3c8f12c9eb0a0990f775ab8ea2942cd309bcd62e1", "72f1ed68faaa1a8d5ef9741920ad2ef8142ec3fcbe01dde3f60da1ca89ea7b6e"),
    ("pow:5", 16, "01a5237fd568d60c926eb7b8a30b49b8ca121c4ad27e262d920ee39eaa93b197", "19711c5484c1b8ac3eadff77d66d32a306ede9802df97b70d1d9a587a402076c"),
    ("pow:6", 2, "a55971588083d7476416061c8551e5d397917d9c57a2eb55000e7f5c7c768765", "b45b5962fe9ae8c9021d9906d8d1afb7db48be986781a98f8764dc48e925f013"),
    ("pow:6", 10, "5e75c643da798b9f7b771ac0ab744d7e27be200c8814ee56348f7f9e76e5baac", "56400b2f0105e1a792e73231aa8979df6128d18604c8bdad2905a549c85964fb"),
    ("pow:6", 16, "92871afa7f337fbd5187cd08fc424f588b42f528e7128cac671254bd87f1d3d1", "4e7718728513c8aed48f0639bfad2fb68a26fc01e69d2f5afb8416f2acfbd453"),
    ("expbase:2", 2, "2d1e2abfa4d9fe02bc6bb5f2bb31c27eb2ee3f1385c76d99739c9baa7a2e9d37", "4a2621d4d5079e4dc970b1ca47c002a7c1f514b8e274b8cf272325a1003954b7"),
    ("expbase:2", 10, "7a1d09218cf628726803a44237230842dec2e2d3dd814a53f7a2cece80ba8d00", "b6e877e13283fbaf56d78ad61060fce03eb04949c5e28ddae49b422022aad5c1"),
    ("expbase:2", 16, "66fc8342778cc6f09d0446ca0dcf66cd4ea79f1c33870351a9ae93834e4590fc", "354e44253b5e5a39d86129fb4fec1396c09e384e5560ece2ebbd3aff48050468"),
    ("expbase:3", 2, "2a0974379b1a91da3578b26af384aa93edf3643f2ab549de3c18fe13b289e0a8", "258aa7ef97951260f1899f77d6fe882e601d1048fe9db4afa6cc02ce8868829a"),
    ("expbase:3", 10, "1708ade8ecfac0c664700f7668a7518564efcd257fc9c128b98b680f7ae3553e", "6e71affd80ea4ea0d774e260e09a0f401a71f66b58984d68cd0ab22babb127c5"),
    ("expbase:3", 16, "d96e5ccc43f89c61d6df0adc146d7be8088107a03b07892c3abaf9580309a580", "1cd81a1604945dce62742276ea77efc9c0a01800fd2f16529005acff61a1f66a"),
    ("expbase:4", 2, "a293bfdc3485dafefdcdb764ac55cbd9d7fc989290cfcc2a34d46641495f12ee", "479f1c8e7e215e2120391edf5ca22338d10fed67422a9ddd2a7589ea9ff53159"),
    ("expbase:4", 10, "59c71e25ab91b3182051a61ca4db2ae3af1bdfe46a30d0909be98627db560448", "2b1e43812337933e3c1baa796d50abb554c06e94aa283d7d11c71f51beab7dd1"),
    ("expbase:4", 16, "a1c1eefb2d34d76bca47a852cd98901fa1c1501aeb62c2d0cb103db1efd68c78", "96921c0abee84356f1abd08b8a4ee15c7167703e72fe551ef2de161b6b0f336e"),
    ("selfpow", 2, "c82a2252f7c7e4d642538479c4f4f9db8007d8a3b1f75cbc62fce4321858e4de", "210541340424d472679831f57290b856542b66aeefa55143c8b8a939b4d038bd"),
    ("selfpow", 10, "51de86a6665f9896a39049292ef26848c9391253359d70f9c4522a4ca1448218", "e3f8c6f06759e8471a63e4fa96ea71915b0ec9a48c10e7a743235c33f5b17be0"),
    ("selfpow", 16, "5b204e47aaf850d2687bfd3eafa33069263489d8f1e803f61a9760e7f4163699", "10295fdf03f663043348f45f71a70fc6950f0cb1e4b188efdc67a457aa4a3649"),
    ("selfpow:0", 2, "c82a2252f7c7e4d642538479c4f4f9db8007d8a3b1f75cbc62fce4321858e4de", "aecb047e7f8fd57d42ab903b9b90f986f054339d58be2049aa83c3f06cb706f9"),
    ("selfpow:0", 10, "51de86a6665f9896a39049292ef26848c9391253359d70f9c4522a4ca1448218", "0be1ff8c09c3e0109a9bed35481324724ee17d55b96df98d733c9ba94eddbf0b"),
    ("selfpow:0", 16, "5b204e47aaf850d2687bfd3eafa33069263489d8f1e803f61a9760e7f4163699", "8eef9803252b7b46a26566ada1feeeeb69e9576562bea047c282aa494ddec8b3"),
    ("fib", 2, "73088b77a10219db1fe70b2fe1f7f5136da645788f32149bff33f65621b91751", "83c1b4e9590791d015f1e1e091c06225149c52258465113b56f5b707aa22b6f4"),
    ("fib", 10, "1447f0d9262c6f737afafbd20466955c265836c8e061d6aaebb6341fb2ccbf69", "2f0c761e1b302a641218f91dfc97129b165cd9485d84e8bf13f8d9bcc5cb3124"),
    ("fib", 16, "c5a9b1066e6429f34c1bcd7dab9a4e65878c8e1811381109c30b197a0a2c2970", "3d55a97708a5f905e166b65a204dc4efa8c883f97f9c7ef532a6bf956dfcd9dc"),
    ("poly:1/2,1/2,0", 2, "804f92598beb7f4b6a7d9d4dd696c1bc22fbe9e961b6aa8c15d2faace45d7bca", "a56a4e92af62e6091a118310c507b675c5b2bd1f304358e2ee56629d87e2c513"),
    ("poly:1/2,1/2,0", 10, "e76a8dd6dd9271fc31293df0b298efa588b496f5af2a2d5b42723d79f38400a5", "be049fe1917682889a08fb72a3c2f5df24ba860eed6d17ff071c963f9bef95d3"),
    ("poly:1/2,1/2,0", 16, "ab1fdac4b978de7ddddac3b462b4cd98405a4698627f19d64e04f965815f8383", "c7dcc65e0f0a601f0357b6678a884d33804df1f7107793b367147f638cfdf95c"),
]


@pytest.mark.parametrize("fn, base, text, records", GOLDEN_WELLS, ids=[f"{f} {b}" for f, b, _, _ in GOLDEN_WELLS])
def test_bound_wells_is_frozen(capsys, fn, base, text, records):
    for fmt, digest in (("text", text), ("records", records)):
        code, out, err = run(capsys, "bound", "wells", "--fn", fn, "--base", str(base), "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# Each runner hands main its records and its text lines, and main writes the
# ones --format names.  Both are built only when main asks for them: with every
# text renderer raising, records mode still succeeds, and with the record writer
# (and the numeral conversion that only records use) raising, text mode does;
# either way the output is the unpatched one.


def _refuse(*args, **kwargs):
    raise AssertionError("rendered for the format that was not asked for")


class _Uncounted(tuple):
    """Corpus results whose count, which only the text summary takes, refuses."""

    def __len__(self):
        _refuse()


def _refuse_text(monkeypatch):
    import digitfix.cli as cli

    monkeypatch.setattr(cli, "elide_numeral", _refuse)
    for family in FAMILY_TABLE.values():
        monkeypatch.setattr(family, "line", _refuse)
        monkeypatch.setattr(family, "summary", SimpleNamespace(format=_refuse))
    for kind, (help_text, derivation, arguments, _) in cli._BOUNDS.items():
        monkeypatch.setitem(cli._BOUNDS, kind, (help_text, derivation, arguments, _refuse))
    check = cli.corpus_check

    def uncounted():
        report = check()
        return SimpleNamespace(results=_Uncounted(report.results), mismatches=report.mismatches)

    monkeypatch.setattr(cli, "corpus_check", uncounted)


def _renders_each_format_alone(capsys, monkeypatch, argv, code=0):
    import digitfix.cli as cli

    for fmt in ("records", "text"):
        expected = run(capsys, *argv, "--format", fmt)
        assert expected[0] == code and expected[1], (argv, fmt, expected)
        with monkeypatch.context() as patched:
            if fmt == "records":
                _refuse_text(patched)
            else:
                patched.setattr(cli, "_record", _refuse)
                patched.setattr(cli, "decimal_str", _refuse)
            assert run(capsys, *argv, "--format", fmt) == expected, (argv, fmt)


class TestEachFormatRendersAlone:
    @pytest.mark.parametrize("argv", sorted({a for a, _, _, _ in GOLDEN if a.startswith("search ")}))
    def test_search(self, capsys, monkeypatch, argv):
        _renders_each_format_alone(capsys, monkeypatch, argv.split())

    @pytest.mark.parametrize("kind, fn", [
        ("hardy", "pow:5"), ("wells", "factorial"), ("dudeney", "pow:3"), ("powersum", "pow:3"),
    ])
    def test_bound(self, capsys, monkeypatch, kind, fn):
        _renders_each_format_alone(capsys, monkeypatch, ["bound", kind, "--fn", fn])

    def test_family_piezas(self, capsys, monkeypatch):
        argv = ["family", "piezas", "--fermat-index", "3", "--t", "1", "--elide", "50"]
        _renders_each_format_alone(capsys, monkeypatch, argv)

    def test_family_vitalis(self, capsys, monkeypatch):
        argv = ["family", "vitalis", "-l", "50", "--elide", "50"]
        _renders_each_format_alone(capsys, monkeypatch, argv)

    def test_corpus_check(self, capsys, monkeypatch):
        _renders_each_format_alone(capsys, monkeypatch, ["corpus", "check"])

    def test_corpus_check_mismatch(self, capsys, monkeypatch):
        import digitfix.cli as cli
        from digitfix.corpus import CorpusEntry, CorpusReport, EntryResult

        entry = CorpusEntry(id="drifted", kind="search", family="hardy", fn="pow:3", expected=[1])
        report = CorpusReport(results=(EntryResult(entry=entry, ok=False, actual=[1, 153]),))
        monkeypatch.setattr(cli, "corpus_check", lambda: report)
        _renders_each_format_alone(capsys, monkeypatch, ["corpus", "check"], code=1)


# Every README "Command line" line and every distinct argv of the benchmark
# workloads, with what the command hands its callees: the calls recorded by
# callees() and the stdout rendered from the recorders' stub results.
GOLDEN_PARSE = [
    ("search hardy --fn factorial --base 10",
     [("run_search", "hardy", (10, 1, "factorial", None, None, False, "absent", "absent"))],
     "0 hit(s), search ceiling 0\n"),
    ("search hardy --fn factorial --base 16",
     [("run_search", "hardy", (16, 1, "factorial", None, None, False, "absent", "absent"))],
     "0 hit(s), search ceiling 0\n"),
    ("search hardy --fn selfpow:0 --engine multiset",
     [("run_search", "hardy", (10, 1, "selfpow:0", "multiset", None, False, "absent", "absent"))],
     "0 hit(s), search ceiling 0\n"),
    ("search hardy --fn pow:3 --k 2",
     [("run_search", "hardy", (10, 2, "pow:3", None, None, False, "absent", "absent"))],
     "0 hit(s), search ceiling 0\n"),
    ("search armstrong --base 4",
     [("run_search", "armstrong", (4, 1, "absent", None, "absent", "absent", None, "absent"))],
     "0 hit(s), search ceiling 0\n"),
    ("search wells --fn subfactorial",
     [("run_search", "wells", (10, 1, "subfactorial", None, None, False, "absent", "absent"))],
     "0 hit(s), search ceiling 0\n"),
    ("search wells-reverse --fn pow:5 --cap 100000",
     [("run_search", "wells-reverse", (10, 1, "pow:5", None, 100000, False, "absent", "absent"))],
     "0 hit(s), search ceiling 0\n"),
    ("search dudeney --fn pow:3",
     [("run_search", "dudeney", (10, 1, "pow:3", None, None, False, "absent", "absent"))],
     "0 hit(s), search ceiling 0\n"),
    ("search powersum --fn pow:3 --engine scan",
     [("run_search", "powersum", (10, 1, "pow:3", "scan", None, False, "absent", "absent"))],
     "0 hit(s), search ceiling 0\n"),
    ("search reversal --digits 4",
     [("run_search", "reversal", (10, 1, "absent", None, "absent", "absent", "absent", 4))],
     "0 hit(s) among 4-digit numbers\n"),
    ("bound hardy --fn pow:5",
     [("hardy_bound", "pow:5", 10, 1)],
     "block image maximum s = 0\nblock count threshold M = 0\nsearch ceiling n_max = 0\n"),
    ("bound wells --fn factorial",
     [("wells_cutoff", "factorial", 10)],
     "no fixed point of digit_count(F(n)) = n at or above 0 (stub)\n"),
    ("family piezas --fermat-index 4 --t 0",
     [("piezas_numerals", 4, 0)],
     "block length 3\nx = 1\ny = 2\nverified: x*10^L + y = x^2 + y^2 holds exactly\n"),
    ("family vitalis -l 50",
     [("vitalis_generate", 50)],
     "x = 1\ny = 2\nz = 3\nx^3 + y^3 + z^3 = 4\nverified: identity holds exactly\n"),
    ("corpus check",
     [("corpus_check",)],
     "0 entries, 0 mismatches\n"),
    ("search hardy --fn pow:7 --format records --jobs 2",
     [("run_search", "hardy", (10, 1, "pow:7", None, None, False, "absent", "absent"))],
     ""),
    ("search hardy --fn expbase:5 --format records --jobs 2",
     [("run_search", "hardy", (10, 1, "expbase:5", None, None, False, "absent", "absent"))],
     ""),
    ("search hardy --fn factorial --format records --jobs 2",
     [("run_search", "hardy", (10, 1, "factorial", None, None, False, "absent", "absent"))],
     ""),
    ("search hardy --fn pow:3 --k 2 --format records --jobs 2",
     [("run_search", "hardy", (10, 2, "pow:3", None, None, False, "absent", "absent"))],
     ""),
    ("search powersum --fn pow:4 --engine scan --format records --jobs 2",
     [("run_search", "powersum", (10, 1, "pow:4", "scan", None, False, "absent", "absent"))],
     ""),
    ("search reversal --digits 6 --format records --jobs 2",
     [("run_search", "reversal", (10, 1, "absent", None, "absent", "absent", "absent", 6))],
     ""),
    ("search reversal --digits 7 --base 8 --format records --jobs 2",
     [("run_search", "reversal", (8, 1, "absent", None, "absent", "absent", "absent", 7))],
     ""),
    ("search hardy --fn selfpow --engine multiset --base 11 --format records --jobs 1",
     [("run_search", "hardy", (11, 1, "selfpow", "multiset", None, False, "absent", "absent"))],
     ""),
    ("search armstrong --max-order 12 --format records --jobs 1",
     [("run_search", "armstrong", (10, 1, "absent", None, "absent", "absent", 12, "absent"))],
     ""),
    ("search armstrong --base 5 --format records --jobs 1",
     [("run_search", "armstrong", (5, 1, "absent", None, "absent", "absent", None, "absent"))],
     ""),
    ("search hardy --fn expbase:9 --engine multiset --format records --jobs 1",
     [("run_search", "hardy", (10, 1, "expbase:9", "multiset", None, False, "absent", "absent"))],
     ""),
    ("search hardy --fn pow:8 --engine multiset --format records --jobs 1",
     [("run_search", "hardy", (10, 1, "pow:8", "multiset", None, False, "absent", "absent"))],
     ""),
    ("search hardy --fn pow:9 --engine multiset --format records --jobs 1",
     [("run_search", "hardy", (10, 1, "pow:9", "multiset", None, False, "absent", "absent"))],
     ""),
    ("bound hardy --fn pow:5 --format records --jobs 1",
     [("hardy_bound", "pow:5", 10, 1)],
     '{"base":10,"block_threshold":0,"bound":"hardy","fn":"pow:5","justification":[],"k":1,"n_max":0,"s_k":0}\n'),
    ("bound hardy --fn selfpow --format records --jobs 1",
     [("hardy_bound", "selfpow", 10, 1)],
     '{"base":10,"block_threshold":0,"bound":"hardy","fn":"selfpow","justification":[],"k":1,"n_max":0,"s_k":0}\n'),
    ("bound hardy --fn factorial --format records --jobs 1",
     [("hardy_bound", "factorial", 10, 1)],
     '{"base":10,"block_threshold":0,"bound":"hardy","fn":"factorial","justification":[],"k":1,"n_max":0,"s_k":0}\n'),
    ("bound hardy --fn pow:3 --k 2 --format records --jobs 1",
     [("hardy_bound", "pow:3", 10, 2)],
     '{"base":10,"block_threshold":0,"bound":"hardy","fn":"pow:3","justification":[],"k":2,"n_max":0,"s_k":0}\n'),
    ("bound hardy --fn pow:4 --format records --jobs 1",
     [("hardy_bound", "pow:4", 10, 1)],
     '{"base":10,"block_threshold":0,"bound":"hardy","fn":"pow:4","justification":[],"k":1,"n_max":0,"s_k":0}\n'),
    ("bound hardy --fn expbase:4 --format records --jobs 1",
     [("hardy_bound", "expbase:4", 10, 1)],
     '{"base":10,"block_threshold":0,"bound":"hardy","fn":"expbase:4","justification":[],"k":1,"n_max":0,"s_k":0}\n'),
    ("bound wells --fn factorial --format records --jobs 1",
     [("wells_cutoff", "factorial", 10)],
     '{"base":10,"bound":"wells","cutoff":0,"fn":"factorial","method":"stub","witnesses":[]}\n'),
    ("bound wells --fn subfactorial --format records --jobs 1",
     [("wells_cutoff", "subfactorial", 10)],
     '{"base":10,"bound":"wells","cutoff":0,"fn":"subfactorial","method":"stub","witnesses":[]}\n'),
    ("bound wells --fn selfpow --format records --jobs 1",
     [("wells_cutoff", "selfpow", 10)],
     '{"base":10,"bound":"wells","cutoff":0,"fn":"selfpow","method":"stub","witnesses":[]}\n'),
    ("bound dudeney --fn pow:2 --format records --jobs 1",
     [("dudeney_cutoff", "pow:2", 10)],
     '{"base":10,"bound":"dudeney","cutoff":0,"fn":"pow:2","method":"stub","witnesses":[]}\n'),
    ("bound dudeney --fn pow:3 --format records --jobs 1",
     [("dudeney_cutoff", "pow:3", 10)],
     '{"base":10,"bound":"dudeney","cutoff":0,"fn":"pow:3","method":"stub","witnesses":[]}\n'),
    ("bound dudeney --fn pow:4 --format records --jobs 1",
     [("dudeney_cutoff", "pow:4", 10)],
     '{"base":10,"bound":"dudeney","cutoff":0,"fn":"pow:4","method":"stub","witnesses":[]}\n'),
    ("bound dudeney --fn pow:5 --format records --jobs 1",
     [("dudeney_cutoff", "pow:5", 10)],
     '{"base":10,"bound":"dudeney","cutoff":0,"fn":"pow:5","method":"stub","witnesses":[]}\n'),
    ("bound powersum --fn pow:2 --format records --jobs 1",
     [("powersum_bound", 2, 10)],
     '{"base":10,"bound":"powersum","coarse":0,"fn":"pow:2","s_max":0}\n'),
    ("bound powersum --fn pow:3 --format records --jobs 1",
     [("powersum_bound", 3, 10)],
     '{"base":10,"bound":"powersum","coarse":0,"fn":"pow:3","s_max":0}\n'),
    ("bound powersum --fn pow:4 --format records --jobs 1",
     [("powersum_bound", 4, 10)],
     '{"base":10,"bound":"powersum","coarse":0,"fn":"pow:4","s_max":0}\n'),
    ("bound powersum --fn pow:5 --format records --jobs 1",
     [("powersum_bound", 5, 10)],
     '{"base":10,"bound":"powersum","coarse":0,"fn":"pow:5","s_max":0}\n'),
    ("search wells --fn factorial --format records --jobs 1",
     [("run_search", "wells", (10, 1, "factorial", None, None, False, "absent", "absent"))],
     ""),
    ("search wells --fn selfpow --format records --jobs 1",
     [("run_search", "wells", (10, 1, "selfpow", None, None, False, "absent", "absent"))],
     ""),
    ("search wells --fn subfactorial --format records --jobs 1",
     [("run_search", "wells", (10, 1, "subfactorial", None, None, False, "absent", "absent"))],
     ""),
    ("search wells --fn pow:4 --format records --jobs 1",
     [("run_search", "wells", (10, 1, "pow:4", None, None, False, "absent", "absent"))],
     ""),
    ("search wells-reverse --fn pow:5 --cap 100000 --format records --jobs 1",
     [("run_search", "wells-reverse", (10, 1, "pow:5", None, 100000, False, "absent", "absent"))],
     ""),
    ("search wells-reverse --fn pow:4 --cap 100000 --format records --jobs 1",
     [("run_search", "wells-reverse", (10, 1, "pow:4", None, 100000, False, "absent", "absent"))],
     ""),
    ("search dudeney --fn pow:3 --format records --jobs 1",
     [("run_search", "dudeney", (10, 1, "pow:3", None, None, False, "absent", "absent"))],
     ""),
    ("search dudeney --fn pow:2 --format records --jobs 1",
     [("run_search", "dudeney", (10, 1, "pow:2", None, None, False, "absent", "absent"))],
     ""),
    ("search dudeney --fn fib --cap 100 --format records --jobs 1",
     [("run_search", "dudeney", (10, 1, "fib", None, 100, False, "absent", "absent"))],
     ""),
    ("search dudeney --fn pow:3 --engine preimage --format records --jobs 1",
     [("run_search", "dudeney", (10, 1, "pow:3", "preimage", None, False, "absent", "absent"))],
     ""),
    ("search dudeney --fn pow:2 --engine preimage --format records --jobs 1",
     [("run_search", "dudeney", (10, 1, "pow:2", "preimage", None, False, "absent", "absent"))],
     ""),
    ("search powersum --fn pow:2 --format records --jobs 1",
     [("run_search", "powersum", (10, 1, "pow:2", None, None, False, "absent", "absent"))],
     ""),
    ("search powersum --fn pow:3 --format records --jobs 1",
     [("run_search", "powersum", (10, 1, "pow:3", None, None, False, "absent", "absent"))],
     ""),
    ("search powersum --fn pow:4 --format records --jobs 1",
     [("run_search", "powersum", (10, 1, "pow:4", None, None, False, "absent", "absent"))],
     ""),
    ("search powersum --fn pow:2 --engine scan --format records --jobs 1",
     [("run_search", "powersum", (10, 1, "pow:2", "scan", None, False, "absent", "absent"))],
     ""),
    ("search powersum --fn pow:3 --engine scan --format records --jobs 1",
     [("run_search", "powersum", (10, 1, "pow:3", "scan", None, False, "absent", "absent"))],
     ""),
    ("search armstrong --base 3 --format records --jobs 1",
     [("run_search", "armstrong", (3, 1, "absent", None, "absent", "absent", None, "absent"))],
     ""),
    ("search armstrong --base 4 --format records --jobs 1",
     [("run_search", "armstrong", (4, 1, "absent", None, "absent", "absent", None, "absent"))],
     ""),
    ("search armstrong --max-order 4 --format records --jobs 1",
     [("run_search", "armstrong", (10, 1, "absent", None, "absent", "absent", 4, "absent"))],
     ""),
    ("search reversal --digits 2 --format records --jobs 1",
     [("run_search", "reversal", (10, 1, "absent", None, "absent", "absent", "absent", 2))],
     ""),
    ("search reversal --digits 3 --format records --jobs 1",
     [("run_search", "reversal", (10, 1, "absent", None, "absent", "absent", "absent", 3))],
     ""),
    ("search reversal --digits 4 --format records --jobs 1",
     [("run_search", "reversal", (10, 1, "absent", None, "absent", "absent", "absent", 4))],
     ""),
    ("search reversal --digits 5 --base 8 --format records --jobs 1",
     [("run_search", "reversal", (8, 1, "absent", None, "absent", "absent", "absent", 5))],
     ""),
    ("search hardy --fn pow:3 --format records --jobs 1",
     [("run_search", "hardy", (10, 1, "pow:3", None, None, False, "absent", "absent"))],
     ""),
    ("search hardy --fn pow:4 --format records --jobs 1",
     [("run_search", "hardy", (10, 1, "pow:4", None, None, False, "absent", "absent"))],
     ""),
    ("search hardy --fn pow:5 --format records --jobs 1",
     [("run_search", "hardy", (10, 1, "pow:5", None, None, False, "absent", "absent"))],
     ""),
    ("search hardy --fn expbase:3 --format records --jobs 1",
     [("run_search", "hardy", (10, 1, "expbase:3", None, None, False, "absent", "absent"))],
     ""),
    ("search hardy --fn expbase:4 --format records --jobs 1",
     [("run_search", "hardy", (10, 1, "expbase:4", None, None, False, "absent", "absent"))],
     ""),
    ("search hardy --fn subfactorial --format records --jobs 1",
     [("run_search", "hardy", (10, 1, "subfactorial", None, None, False, "absent", "absent"))],
     ""),
    ("search hardy --fn selfpow --engine multiset --format records --jobs 1",
     [("run_search", "hardy", (10, 1, "selfpow", "multiset", None, False, "absent", "absent"))],
     ""),
    ("search hardy --fn expbase:8 --engine multiset --format records --jobs 1",
     [("run_search", "hardy", (10, 1, "expbase:8", "multiset", None, False, "absent", "absent"))],
     ""),
    ("family piezas --fermat-index 4 --t 2 --format records",
     [("piezas_numerals", 4, 2)],
     '{"block_length":3,"family":"piezas","fermat_index":4,"t":2,"verified":true,"x":"1","y":"2"}\n'),
    ("family vitalis -l 2000 --format records",
     [("vitalis_generate", 2000)],
     '{"family":"vitalis","repeat":2000,"value":"4","verified":true,"x":"1","y":"2","z":"3"}\n'),
    ("corpus check --format records",
     [("corpus_check",)],
     ""),
]


@pytest.mark.parametrize("argv, calls, stdout", GOLDEN_PARSE, ids=[a for a, _, _ in GOLDEN_PARSE])
def test_command_line_reaches_its_callee_with_frozen_arguments(monkeypatch, argv, calls, stdout):
    assert callees(monkeypatch, argv.split()) == (calls, 0, stdout)


# Every record of a block-sum search in GOLDEN_PARSE re-proves itself from its
# own fields: F of each radix base**k block of its value is its decomposition,
# whose sum is the value.
BLOCK_SUM_ARGVS = [a for a, _, _ in GOLDEN_PARSE if a.startswith(("search hardy", "search armstrong"))]


@pytest.mark.parametrize("argv", BLOCK_SUM_ARGVS)
def test_records_re_prove_themselves(capsys, argv):
    code, out, _ = run(capsys, *argv.split(), "--format", "records")
    assert code == 0 and out
    for record in records(out):
        spec = parse_spec(record["fn"])
        blocks = group_blocks(record["value"], record["base"], record["k"])
        images = [evaluate(spec, block) for block in blocks]
        assert images == record["decomposition"], record
        assert sum(images) == record["value"]


# Other spellings of a command line parse to the same call: an attached or
# "=" value, a unique prefix of a long flag, the last of repeated options.
SPELLINGS = [
    ("family vitalis -l50", "family vitalis -l 50"),
    ("family vitalis -l=50", "family vitalis -l 50"),
    ("family vitalis --rep 50", "family vitalis -l 50"),
    ("search armstrong --max 4", "search armstrong --max-order 4"),
    ("search hardy --fn=pow:3 --ba=8", "search hardy --fn pow:3 --base 8"),
    ("search hardy --fn pow:4 --k 3 --fn pow:3 --k=2", "search hardy --fn pow:3 --k 2"),
    ("search hardy --inc --fn selfpow", "search hardy --fn selfpow --include-zero"),
    ("bound hardy --fo records --fn pow:5", "bound hardy --fn pow:5 --format records"),
]


@pytest.mark.parametrize("spelling, canonical", SPELLINGS, ids=[s for s, _ in SPELLINGS])
def test_other_spellings_parse_the_same(monkeypatch, spelling, canonical):
    calls, code, out = callees(monkeypatch, spelling.split())
    assert code == 0 and calls
    assert (calls, code, out) == callees(monkeypatch, canonical.split())


# Malformed command lines: each exits 2, prints nothing on stdout and ends
# stderr with one error line.
MALFORMED = [
    "search hardy --fn pow:3 --bogus",  # unknown flag
    "search hardy",  # missing --fn
    "search hardy --fn pow:3 --base x",  # not an int
    "search hardy --fn pow:3 --engine nope",  # not a choice
    "search",  # no subcommand
    "",  # no command
    "search nope --fn pow:3",  # unknown subcommand
    "search hardy --fn pow:3 --f records",  # ambiguous prefix of --fn and --format
    "search hardy --fn pow:3 --cap -5",  # a value, refused by the search itself
    "family vitalis -l",  # missing value
    "family vitalis -l 2 --fermat-index 2",  # a flag of another subcommand
    "search hardy --fn pow:3 --include-zero=1",  # a value given to a flag
    "family piezas --fermat-index 5",  # choices are checked after int()
    "corpus check extra",  # stray argument
]


@pytest.mark.parametrize("argv", MALFORMED, ids=repr)
def test_malformed_command_line_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert re.fullmatch(r"(digitfix( \S+)*: )?error: .+", err.splitlines()[-1])


@pytest.mark.parametrize(
    "argv, usage, error",
    [
        ("search hardy --fn pow:3 --bogus", "digitfix search hardy [-h] [--base BASE] --fn FN ",
         "digitfix search hardy: error: unrecognized arguments: --bogus"),
        ("search", "digitfix search [-h] {hardy,armstrong,wells,wells-reverse,dudeney,powersum,reversal} ...",
         "digitfix search: error: the following arguments are required: family"),
        ("nope", "digitfix [-h] {search,bound,family,corpus} ...",
         "digitfix: error: argument command: invalid choice: 'nope' "
         "(choose from 'search', 'bound', 'family', 'corpus')"),
        ("family vitalis -l x", "digitfix family vitalis [-h] --repeat REPEAT ",
         "digitfix family vitalis: error: argument --repeat/-l: invalid int value: 'x'"),
    ],
)
def test_usage_error_prints_the_failing_levels_usage(capsys, argv, usage, error):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    usage_line, error_line = err.splitlines()
    assert usage_line.startswith("usage: " + usage)
    assert error_line == error


# every level of the command path
HELP_PATHS = [
    "", "search", "bound", "family", "corpus",
    *(f"search {family}" for family in
      ("hardy", "armstrong", "wells", "wells-reverse", "dudeney", "powersum", "reversal")),
    *(f"bound {kind}" for kind in ("hardy", "wells", "dudeney", "powersum")),
    "family piezas", "family vitalis", "corpus check",
]


@pytest.mark.parametrize("path", HELP_PATHS, ids=lambda path: path or "top")
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_subcommand_and_option(capsys, path, flag):
    import digitfix.cli as cli

    code, out, err = run(capsys, *path.split(), flag)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: {' '.join(('digitfix', *path.split()))} [-h]")
    help_text, options, subcommands, _ = cli._level(tuple(path.split()))
    assert help_text in out
    # one row per subcommand and per option, with its flags, choices and help
    rows = [line.strip() for line in out.splitlines()]
    for name, text in (subcommands or {}).items():
        assert any(row.startswith(name + " ") and row.endswith(text) for row in rows), name
    for option in options:
        flags = ", ".join(option.flags)
        choices = "{" + ",".join(map(str, option.choices)) + "}" if option.choices else ""
        assert any(
            row.startswith(flags) and choices in row and option.help in row for row in rows
        ), flags


# Per search family: sha256 of its `-h` stdout and of the usage line it
# prints on an unknown flag, frozen from the hand-written option lists.
GOLDEN_HELP = {
    "hardy": ("767fd03f869f9a31b8c569e26107a559e87482ad113fb1c898609642476e5aef",
              "1acb1ef5f545cd0a42f49df97df3d1f353f0b87ce5f7c3b8519de6ee2bd1f2db"),
    "armstrong": ("b39e0ddf3eafe98dd623bd573594f7a26269c19cc52f473f6af9ef29c737d9cf",
                  "17890817c0b475bfd4119bf43f7254f3499ccd94fe207edea021b3b546306ec5"),
    "wells": ("79c9d909913cc5a3e3f33befd136be828a011429dc8001f9c87fd9d2f1ac1642",
              "7ebbb1de4618aa68f84a6ecb460438a62f07d41609ee3dfc810408009174b65a"),
    "wells-reverse": ("3aa7b38f6d1c1c2f7122b8e41572d2d326f7f89fd9f593fa2e507cb990b3fec9",
                      "70d94c6a36a9637f876ab04351824e5ba0f02b26d610feb2e6d0d053e834907d"),
    "dudeney": ("2d521e92953082fa86f4ed50cef8dd989c9eb7cd3c1db6236b0820c4d721bdf0",
                "faa1d96fa194416cdb365a686da1c1ef856c96c4a192043c1ad26a8e61a0a543"),
    "powersum": ("296666f8d3ee07ffad5f0dc28c5ccb258ed4718cd6f7a8162438572de53a7189",
                 "130e11a12307df45773aa89a2e86b59b014211559aacafd2b587ebdff772be60"),
    "reversal": ("16aab8591de91760e13a8060c00972f76be388962e64a666e47a5a6171c94069",
                 "67163bd38e8116e13762e140c841e32bf0bb3717cfa439b55cea09d5a2a707e9"),
}


@pytest.mark.parametrize("family", GOLDEN_HELP)
def test_search_help_and_usage_are_frozen(capsys, family):
    help_digest, usage_digest = GOLDEN_HELP[family]
    code, out, err = run(capsys, "search", family, "-h")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == help_digest
    code, out, err = run(capsys, "search", family, "--bogus")
    assert (code, out) == (2, "")
    usage = err.splitlines()[0]
    assert hashlib.sha256(usage.encode()).hexdigest() == usage_digest


def test_reversal_text_summary(capsys):
    code, out, _ = run(capsys, "search", "reversal", "--digits", "6")
    assert code == 0
    assert out == "879912 = 4 x 219978\n989901 = 9 x 109989\n2 hit(s) among 6-digit numbers\n"


def _readme_commands():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        block = f.read().split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    return [line.split("#")[0].split()[1:] for line in block.splitlines() if line.startswith("digitfix ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_line_examples_run(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 0, err


def test_golden_parse_holds_every_readme_command_line():
    assert {" ".join(argv) for argv in _readme_commands()} <= {a for a, _, _ in GOLDEN_PARSE}


class TestDeterminism:
    def test_records_identical_across_jobs(self, capsys):
        outputs = []
        for jobs in ("1", "2", "8"):
            code, out, _ = run(
                capsys, "search", "hardy", "--fn", "pow:5", "--format", "records",
                "--jobs", jobs,
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("flag", ["abc", "0", "-3", "x"])
    def test_bad_jobs_exit_two_with_one_line(self, capsys, flag):
        code, out, err = run(capsys, "search", "hardy", "--fn", "pow:3", "--jobs", flag)
        assert (code, out) == (2, "")
        assert err == f"error: --jobs must be a positive integer, got {flag!r}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["corpus", "check"],
            ["family", "vitalis", "-l", "2"],
            ["family", "piezas", "--fermat-index", "2", "--format", "records"],
            ["bound", "wells", "--fn", "factorial"],
            ["search", "reversal", "--digits", "4"],
            ["search", "hardy", "--fn", "pow:4", "--format", "records"],
        ],
    )
    def test_no_command_reads_a_jobs_environment_variable(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("DIGITFIX_JOBS", raising=False)
        code, out, _ = run(capsys, *argv)
        monkeypatch.setenv("DIGITFIX_JOBS", "x")
        assert run(capsys, *argv)[:2] == (code, out)
        assert code == 0

    @pytest.mark.parametrize("argv", [["corpus", "check"], ["family", "vitalis", "-l", "2"]])
    def test_jobs_flag_belongs_to_search_and_bound_only(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--jobs", "2")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith("error: unrecognized arguments: --jobs 2")


# Every search runs in one process, whatever --jobs says, and start-up is the
# floor of every command.  No command loads argparse (with gettext and locale)
# or a process pool; dataclasses (with inspect), fractions, decimal, json and
# re (with enum) load only for the commands that use them.
_HEAVY_MODULES = (
    "concurrent.futures", "multiprocessing", "dataclasses", "inspect", "fractions", "decimal",
    "argparse", "gettext", "locale", "json", "re", "enum",
)


def test_import_loads_no_process_pool():
    import digitfix

    src = os.path.dirname(os.path.dirname(digitfix.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import contextlib, io, sys, digitfix.cli\n"
        f"heavy = {_HEAVY_MODULES!r}\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "if sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert digitfix.cli.main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in heavy if m in sys.modules))"
    )
    # (command line, modules it needs, modules those may load too)
    for argv, needed, also in (
        ([], set(), set()),
        (["--help"], set(), set()),
        (["search", "powersum", "--fn", "pow:3", "--engine", "scan", "--jobs", "2"], set(), set()),
        (["search", "hardy", "--fn", "pow:3"], set(), set()),
        (["search", "hardy", "--fn", "pow:3", "--format", "records"], set(), set()),
        (["bound", "hardy", "--fn", "pow:5", "--format", "records"], set(), set()),
        # the text form elides the numerals of the justification with re.sub
        (["bound", "hardy", "--fn", "pow:5"], {"re"}, {"enum"}),
        (["search", "hardy", "--fn", "poly:1,0,0,0", "--cap", "1000"], {"fractions"},
         {"decimal", "re", "enum"}),
        (["family", "piezas", "--fermat-index", "4", "--format", "records"], {"decimal"}, set()),
        (["family", "piezas", "--fermat-index", "4"], {"decimal"}, set()),
        # from Python 3.12 on, importlib.resources imports inspect
        (["corpus", "check"], {"json", "decimal"}, {"re", "enum", "inspect"}),
    ):
        # -S keeps out the site module, which may load some of these itself
        result = subprocess.run(
            [sys.executable, "-S", "-c", probe, *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        after_import, after_run = map(ast.literal_eval, result.stdout.splitlines())
        assert after_import == [], argv
        assert needed <= set(after_run) <= needed | also, (argv, after_run)


class TestEntryPoint:
    """``python -m digitfix.cli`` and the ``digitfix`` script run ``cli.run``:
    main, then ``gc.freeze()`` so that interpreter shutdown skips collecting
    the objects start-up loaded, then ``sys.exit``."""

    @staticmethod
    def command(*argv, stdout=subprocess.PIPE, **options):
        import digitfix

        src = os.path.dirname(os.path.dirname(digitfix.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run(
            [sys.executable, "-m", "digitfix.cli", *argv],
            env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=60, **options,
        )

    def test_main_freezes_nothing(self, capsys):
        assert gc.get_freeze_count() == 0
        assert run(capsys, "search", "hardy", "--fn", "pow:3", "--format", "records")[0] == 0
        assert run(capsys, "search", "hardy", "--bogus")[0] == 2
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["search", "hardy", "--fn", "pow:3", "--format", "records"], 0),
            (["search", "hardy", "--fn", "nope"], 2),
            (["search", "hardy", "--bogus"], 2),
            (["search", "hardy", "--fn", "fib"], 3),
        ],
    )
    def test_module_keeps_the_exit_code_and_output_of_main(self, capsys, argv, code):
        in_process = run(capsys, *argv)
        assert in_process[0] == code
        result = self.command(*argv)
        assert (result.returncode, result.stdout.decode(), result.stderr.decode()) == in_process

    @pytest.mark.parametrize(
        "argv",
        [
            # 754 records, about 110 kB: the pipe breaks while main still prints
            ["search", "reversal", "--digits", "30", "--format", "records"],
            # two short records, still buffered when main returns: it breaks at the flush
            ["search", "hardy", "--fn", "pow:3", "--k", "2", "--cap", "500", "--format", "records"],
        ],
    )
    def test_closed_stdout_exits_two_with_one_line(self, argv):
        # as `digitfix ... | head` once head has exited: the reader is gone
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = self.command(*argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert result.returncode == 2
        assert result.stderr == b"error: stdout was closed before the output was written\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            # the write fails while main still prints, as on a full disk
            ["search", "reversal", "--digits", "30", "--format", "records"],
            # the write fails at the final flush
            ["search", "hardy", "--fn", "pow:3", "--k", "2", "--cap", "500", "--format", "records"],
        ],
    )
    def test_full_stdout_exits_two_with_one_line(self, argv):
        with open("/dev/full", "w") as full:
            result = self.command(*argv, stdout=full)
        assert result.returncode == 2
        assert result.stderr == (
            b"error: stdout cannot take the output: [Errno 28] No space left on device\n"
        )

    def test_stdout_closed_at_start_exits_two_with_one_line(self):
        # `digitfix ... >&-`: the interpreter starts with sys.stdout None
        result = self.command("search", "wells", "--fn", "factorial", stdout=None,
                              preexec_fn=lambda: os.close(1))
        assert result.returncode == 2
        assert result.stderr == b"error: stdout was closed before the output was written\n"

    def test_another_oserror_propagates(self, monkeypatch):
        import digitfix.cli as cli

        def fail():
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "main", fail)
        monkeypatch.setattr(sys, "stdout", sys.stdout)  # restored after run replaces it
        with pytest.raises(OSError, match="No space left on device"):
            cli.run()

    def test_module_writes_every_byte_of_a_large_record(self):
        # 360 kB on stdout, still buffered when main returns; the digests
        # are the benchmark's frozen answer for this command
        result = self.command("family", "piezas", "--fermat-index", "4", "--t", "2",
                              "--format", "records")
        assert (result.returncode, result.stderr) == (0, b"")
        (rec,) = records(result.stdout.decode())
        assert rec["block_length"] == 180224
        assert hashlib.sha256(rec["x"].encode()).hexdigest() == (
            "eae576214686f158856f7f54bb41d63fbdcbed0c4544ade1c6f7b32d0ad5ab8d"
        )
        assert hashlib.sha256(rec["y"].encode()).hexdigest() == (
            "753c803dc5ebbf116727398d185a79edc3c193a71f7da6e116f4f1a78209f33f"
        )


def test_no_module_imports_a_process_pool():
    import digitfix

    package = os.path.dirname(digitfix.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] not in ("concurrent", "multiprocessing"), (name, module)


class TestBoundCommands:
    def test_bound_records_schema(self, capsys):
        code, out, _ = run(capsys, "bound", "hardy", "--fn", "factorial", "--format", "records")
        assert code == 0
        (rec,) = records(out)
        assert rec["s_k"] == 362880 and rec["n_max"] == 2540160 and rec["block_threshold"] == 8

    def test_bound_wells(self, capsys):
        code, out, _ = run(capsys, "bound", "wells", "--fn", "factorial", "--format", "records")
        assert code == 0
        (rec,) = records(out)
        assert rec["cutoff"] == 28 and rec["method"] == "analytic"

    @pytest.mark.parametrize("kind", ["hardy", "wells", "dudeney", "powersum"])
    def test_bound_records_print_the_canonical_fn(self, capsys, kind):
        code, out, _ = run(capsys, "bound", kind, "--fn", "pow:03", "--format", "records")
        assert code == 0
        (rec,) = records(out)
        assert rec["fn"] == "pow:3"

    def test_bound_dudeney_unsupported(self, capsys):
        assert run(capsys, "bound", "dudeney", "--fn", "fib")[0] == 3

    def test_bound_powersum(self, capsys):
        code, out, _ = run(capsys, "bound", "powersum", "--fn", "pow:3", "--format", "records")
        assert code == 0
        (rec,) = records(out)
        assert rec["coarse"] == 10**9 and rec["s_max"] == 54


@contextlib.contextmanager
def int_limit_lifted():
    """The interpreter's int-to-str limit, lifted to parse huge numbers back."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# text with every kind of character json.dumps escapes: quotes, backslashes,
# control characters, non-ASCII (also past U+FFFF) and lone surrogates
_JSON_TEXT = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\\b\f\n\r\t\x00\x1f\x7f\xe9\ud800\udfff\U0001f600')
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=12,
)


class TestHugeIntegers:
    """Records carry integers past the int-to-str limit in full, as json.dumps
    would write them with the limit lifted.  The commands run under the limit;
    each test lifts it only to check what they printed."""

    def huge_records(self, capsys, *argv):
        code, out, err = run(capsys, *argv, "--format", "records")
        assert code == 0, err
        recs = []
        with int_limit_lifted():
            for line in out.splitlines():
                recs.append(json.loads(line))
                assert line == json.dumps(recs[-1], sort_keys=True, separators=(",", ":"))
        return recs

    def test_search_wells_selfpow_base_5000(self, capsys):
        recs = self.huge_records(capsys, "search", "wells", "--fn", "selfpow", "--base", "5000")
        assert [r["value"] for r in recs] == [1, *range(4992, 5000)]
        assert all(r["decomposition"] == [r["value"] ** r["value"]] for r in recs)
        code, out, _ = run(capsys, "search", "wells", "--fn", "selfpow", "--base", "5000")
        assert code == 0 and "9 hit(s), search ceiling 4999" in out

    def test_bound_wells_selfpow_base_5000(self, capsys):
        (rec,) = self.huge_records(capsys, "bound", "wells", "--fn", "selfpow", "--base", "5000")
        assert rec["cutoff"] == 5000
        assert rec["witnesses"] == [[n, n**n, 5000**n] for n in (5000, 5001)]

    def test_bound_powersum_pow_80(self, capsys):
        (rec,) = self.huge_records(capsys, "bound", "powersum", "--fn", "pow:80")
        assert rec["coarse"] == 10**6400

    def test_bound_hardy_k_2000(self, capsys):
        s_k = (10**2000 - 1) ** 3
        (rec,) = self.huge_records(capsys, "bound", "hardy", "--fn", "pow:3", "--k", "2000")
        assert (rec["s_k"], rec["block_threshold"], rec["n_max"]) == (s_k, 5, 4 * s_k)
        # text mode elides the two numbers, as bound powersum does
        code, out, _ = run(capsys, "bound", "hardy", "--fn", "pow:3", "--k", "2000")
        assert code == 0
        with int_limit_lifted():
            s_text, n_text = str(s_k), str(4 * s_k)
        last = f"no solution has 5 or more blocks; ceiling = 4*{s_text} = {n_text}"
        assert rec["justification"][-1] == last
        assert f"block image maximum s = {s_text[:12]}...{s_text[-12:]} (6000 digits)" in out
        assert f"search ceiling n_max = {n_text[:12]}...{n_text[-12:]} (6001 digits)" in out
        # the justification lines elide every run of more than 1000 digits
        assert len(out.encode()) < 2000
        elided = [
            "  " + re.sub(
                r"\d{1001,}", lambda m: f"{m[0][:12]}...{m[0][-12:]} ({len(m[0])} digits)", line
            )
            for line in rec["justification"]
        ]
        assert out.splitlines()[3:] == elided
        assert f"4*{s_text[:12]}...{s_text[-12:]} (6000 digits)" in elided[-1]

    def test_writer_matches_json_dumps(self):
        from digitfix.cli import _record

        value = {
            "b": [1, -2, True, False, None, "\u00e9\"\n", 2.5, [[]], {}, (3, "t")],
            "a": {"z": 0, "y": 10**600, "x": -(2**2200)},
        }
        assert _record(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))

    @settings(max_examples=300)
    @given(_JSON_VALUES)
    def test_writer_matches_json_dumps_on_generated_values(self, value):
        from digitfix.cli import _record

        assert _record(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))


class TestFamilyCommands:
    def test_piezas_records_carry_full_values(self, capsys):
        code, out, _ = run(
            capsys, "family", "piezas", "--fermat-index", "3", "--t", "0",
            "--format", "records",
        )
        assert code == 0
        (rec,) = records(out)
        assert len(rec["x"]) == 192 and len(rec["y"]) == 191
        assert rec["verified"] is True

    def test_piezas_huge_member_matches_frozen_digests(self, capsys):
        # the same digests pin this job's answer in perfbench/workloads.json
        code, out, _ = run(
            capsys, "family", "piezas", "--fermat-index", "4", "--t", "2",
            "--format", "records",
        )
        assert code == 0
        (rec,) = records(out)
        assert rec["block_length"] == 180224 and rec["verified"] is True
        assert hashlib.sha256(rec["x"].encode()).hexdigest() == (
            "eae576214686f158856f7f54bb41d63fbdcbed0c4544ade1c6f7b32d0ad5ab8d"
        )
        assert hashlib.sha256(rec["y"].encode()).hexdigest() == (
            "753c803dc5ebbf116727398d185a79edc3c193a71f7da6e116f4f1a78209f33f"
        )
        # the text path elides the same numerals to head...tail (digit count)
        code, text, _ = run(capsys, "family", "piezas", "--fermat-index", "4", "--t", "2")
        assert code == 0
        for side, field in (("x", 180224), ("y", 180222)):
            full = rec[side]
            assert len(full) == field
            line = f"{side} = {full[:12]}...{full[-12:]} ({field} digits)"
            assert line in text.splitlines()

    def test_piezas_text_elides(self, capsys):
        code, out, _ = run(
            capsys, "family", "piezas", "--fermat-index", "3", "--t", "0", "--elide", "50"
        )
        assert code == 0
        assert "(192 digits)" in out

    def test_piezas_path_converts_no_huge_int(self, capsys, monkeypatch):
        # the member is built in base 10; no int wider than str() handles
        # reaches the binary-to-decimal conversion
        import digitfix.cli
        import digitfix.families

        real = digitfix.families.decimal_str

        def small_only(n):
            assert n.bit_length() <= 2126, n.bit_length()
            return real(n)

        monkeypatch.setattr(digitfix.cli, "decimal_str", small_only)
        monkeypatch.setattr(digitfix.families, "decimal_str", small_only)
        for fmt in ((), ("--format", "records")):
            code, out, _ = run(capsys, "family", "piezas", "--fermat-index", "4", "--t", "2", *fmt)
            assert code == 0 and "180224" in out

    @pytest.mark.parametrize(
        "argv,line",
        [
            (["vitalis", "-l", "0", "--elide", "0"], "x^3 + y^3 + z^3 = 153"),
            (["vitalis", "-l", "3", "--elide", "5"], "x^3 + y^3 + z^3 = 166650003333"),
            (["piezas", "--fermat-index", "2", "--elide", "5"], "x = 941176470588"),
            (["piezas", "--fermat-index", "2", "--t", "1", "--elide", "0"],
             "x = 941176470588...941176470588 (28 digits)"),
        ],
    )
    def test_small_elide_prints_short_numerals_in_full(self, capsys, argv, line):
        code, out, _ = run(capsys, "family", *argv)
        assert code == 0
        assert line in out.splitlines()

    @pytest.mark.parametrize("family", [["vitalis", "-l", "2"], ["piezas", "--fermat-index", "2"]])
    @pytest.mark.parametrize("fmt", [(), ("--format", "records")])
    def test_negative_elide_exits_two(self, capsys, family, fmt):
        code, out, err = run(capsys, "family", *family, "--elide", "-1", *fmt)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_vitalis(self, capsys):
        code, out, _ = run(capsys, "family", "vitalis", "-l", "2", "--format", "records")
        assert code == 0
        (rec,) = records(out)
        assert (rec["x"], rec["y"], rec["z"], rec["value"]) == ("166", "500", "333", "166500333")


class TestCorpusCommand:
    def test_corpus_check_passes(self, capsys):
        code, out, _ = run(capsys, "corpus", "check")
        assert code == 0
        assert "0 mismatches" in out

    def test_corpus_check_records(self, capsys):
        code, out, _ = run(capsys, "corpus", "check", "--format", "records")
        assert code == 0
        recs = records(out)
        assert all(r["ok"] for r in recs)
        assert any(r["erratum"] for r in recs)

    def test_corpus_mismatch_exits_one(self, capsys, monkeypatch):
        import digitfix.cli as cli_mod
        from digitfix.corpus import CorpusEntry, CorpusReport, EntryResult

        entry = CorpusEntry(id="drifted", kind="search", family="hardy", fn="pow:3", expected=[1])
        report = CorpusReport(results=(EntryResult(entry=entry, ok=False, actual=[1, 153]),))
        monkeypatch.setattr(cli_mod, "corpus_check", lambda: report)
        code, out, _ = run(capsys, "corpus", "check")
        assert code == 1
        assert "MISMATCH" in out and "drifted" in out

    def test_corpus_unparsable_entry_exits_two(self, capsys, monkeypatch):
        import digitfix.cli as cli_mod
        from digitfix.corpus import CorpusEntry, _validate

        bad = CorpusEntry(id="bad-entry", kind="search", family="hardy", fn="pw:3", expected=[1])
        monkeypatch.setattr(cli_mod, "corpus_check", lambda: _validate(bad))
        code, _, err = run(capsys, "corpus", "check")
        assert code == 2
        assert "bad-entry" in err

    @pytest.mark.parametrize("field", [{"engine": "scan"}, {"k": 3}], ids=["engine", "k"])
    def test_corpus_entry_with_a_setting_its_family_never_reads_exits_two(
        self, capsys, monkeypatch, field
    ):
        import digitfix.corpus as corpus_mod

        entry = next(e for e in corpus_mod.load_corpus() if e.id == "armstrong-b3")
        monkeypatch.setattr(corpus_mod, "load_corpus", lambda: [entry])
        assert run(capsys, "corpus", "check")[0] == 0
        monkeypatch.setattr(corpus_mod, "load_corpus", lambda: [entry.replace(**field)])
        code, out, err = run(capsys, "corpus", "check")
        assert (code, out) == (2, "")
        assert err.startswith("error: corpus entry 'armstrong-b3': the armstrong search")
