"""Byte parity of CLI reports.

Each case is one argv; its exit code, stdout, stderr and (for --dot) the
DOT file are hashed together and compared with a recorded digest, so a
change that alters any byte of any report shows up here.  Every report a
case prints is also validated against docs/report.schema.json.  Input
files use fixed relative names inside a scratch working directory, so the
paths that reports echo back are the same on every run.  Should a report change on
purpose, record the new digest printed in the failure message.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from singkit import corpus
from singkit.cli import main
from singkit.corpus import (
    CUBIC_CONE_LINK,
    ENTRIES,
    TYPE_II_CHAIN,
    TYPE_II_POINT,
    TYPE_III1_SEGMENT,
    TYPE_III2_DISK,
    UNCLASSIFIED_PAIR,
)

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report.schema.json").read_text()
)

CONFIGS = {
    "cubic-cone": CUBIC_CONE_LINK,
    "type-ii-point": TYPE_II_POINT,
    "type-ii-chain": TYPE_II_CHAIN,
    "type-iii1-segment": TYPE_III1_SEGMENT,
    "type-iii2-disk": TYPE_III2_DISK,
    "unclassified-pair": UNCLASSIFIED_PAIR,
}

GERMS = {
    "lines": {"g": "z^5 - w^5", "family": "distinct_lines", "n": 5},
    "a1": {"g": "z^2 + w^6", "family": "a1_times", "n": 3},
    "custom": {"g": "z^5 - w^5 + z^3*w^3", "family": "custom", "branches": 5},
    # five lines labelled as three branches fail branches == ord g (exit 1)
    "inconsistent": {"g": "z^5 - w^5", "family": "custom", "branches": 3},
    # mu + branches - 1 is odd: ConsistencyError (exit 1)
    "parity": {"g": "z^5 - w^5", "family": "custom", "branches": 4},
    # an A3 curve plus a higher term: every check passes and a = 0, with
    # no weights in these coordinates (exit 0)
    "a3": {"g": "z^2 - w^4 + z^2*w^2", "family": "custom", "branches": 2},
}

# corpus entries beyond the bundled ones, all without expectations
EXTRA_ENTRIES = [
    {"id": "extra/tjurina-infinite", "kind": "tjurina", "poly": "x^2 + y^2"},
    {"id": "extra/milnor-vars", "kind": "milnor", "poly": "u^2 + v^3 + s^2 + t^2",
     "vars": ["u", "v", "s", "t"]},
    {"id": "extra/semistable-cusp", "kind": "semistable", "config": TYPE_II_CHAIN,
     "model": {"cusp": {"m": 4, "s": 2}}},
    {"id": "extra/defspace-n4", "kind": "defspace", "n": 4},
    {"id": "extra/fiber-fractions", "kind": "fiber", "n": 4, "b": ["-5/4", "0", "1/4"]},
]

CORPORA = {
    "stripped": [{k: v for k, v in e.items() if k != "expected"} for e in ENTRIES]
    + EXTRA_ENTRIES,
    "failing": [
        {"id": "bad/tau", "kind": "tjurina", "poly": "x^2+y^2+z^2+w^6",
         "expected": {"tau": 99}},
        {"id": "bad/classify", "kind": "classify", "config": TYPE_II_CHAIN,
         "expected": {"verdict": "TYPE_III_1", "h1_t1": 2}},
        {"id": "good/mu", "kind": "milnor", "poly": "x^3+y^3+z^3+w^3",
         "expected": {"mu": 16}},
    ],
    "consistency": [
        {"id": "smallres/parity", "kind": "smallres", "germ": GERMS["parity"]},
    ],
}

CASES = {
    "tjurina": ["tjurina", "x^2+y^2+z^2+w^6"],
    "tjurina-deformed-cone": ["tjurina", "x^3+y^3+z^3+w^3+x*y*z*w"],
    "tjurina-vars": ["tjurina", "u^2 + v^2 + s^2 + t^2", "--vars", "u,v,s,t"],
    "tjurina-non-isolated": ["tjurina", "x^2 + y^2"],
    "tjurina-parse-error": ["tjurina", "x^2+"],
    "tjurina-undeclared": ["tjurina", "q^2"],
    "milnor": ["milnor", "x^3+y^3+z^3+w^3"],
    "milnor-non-isolated": ["milnor", "x^2 + y^2"],
    "milnor-vars": ["milnor", "a^2+b^3", "--vars", "a, b"],
    "smallres-missing-file": ["smallres", "missing.json"],
    "defspace-verify-n2": ["defspace-verify", "--n", "2"],
    "defspace-verify-n4": ["defspace-verify", "--n", "4"],
    "defspace-verify-n5": ["defspace-verify", "--n", "5", "--seed", "3"],
    "defspace-fiber-split": ["defspace-fiber", "--n", "3", "--b=-1,0"],
    "defspace-fiber-double-root": ["defspace-fiber", "--n", "3", "--b", "0,0"],
    "defspace-fiber-fractions": ["defspace-fiber", "--n", "4", "--b=-10/8, 0 ,2/8"],
    "defspace-fiber-bad-b": ["defspace-fiber", "--n", "3", "--b", "1,oops"],
    "defspace-fiber-wrong-length": ["defspace-fiber", "--n", "3", "--b", "1"],
    "corpus-seed0": ["corpus"],
    "corpus-seed7": ["corpus", "--seed", "7"],
    "corpus-stripped": ["corpus", "corpus-stripped.json", "--seed", "3"],
    "corpus-failing": ["corpus", "corpus-failing.json"],
    "corpus-consistency": ["corpus", "corpus-consistency.json"],
    "corpus-missing-file": ["corpus", "missing.json"],
    "dualcomplex-invariants-dot": ["dualcomplex-invariants", "type-ii-chain.json",
                                   "--seed", "5", "--dot", "chain.dot"],
    "dualcomplex-classify-dot": ["dualcomplex-classify", "type-iii2-disk.json",
                                 "--dot", "disk.dot"],
}
CASES.update({f"smallres-{name}": ["smallres", f"germ-{name}.json"] for name in GERMS})
CASES.update({f"dualcomplex-invariants-{name}": ["dualcomplex-invariants", f"{name}.json"]
              for name in CONFIGS})
CASES.update({f"dualcomplex-classify-{name}": ["dualcomplex-classify", f"{name}.json"]
              for name in CONFIGS})

DIGESTS = {
    "corpus-consistency": "4a4edcf761910813a9e0eecd844e164bae596ab84a0c3f5c73276fad935374fe",  # exit 1
    "corpus-failing": "f690d49fb33f3fd8a14f54d0839265498c6def53b4181835f44453d110738da5",  # exit 1
    "corpus-missing-file": "aa74bf3c37ba085d8998e69f505f3eb8cfe5eb699cd3d38dd64f43977a19dca1",  # exit 2
    "corpus-seed0": "3dcb59f9b647b5af53832cbfbcea3d33b0333a2f7cfa2f78cb75889fd4e436e7",  # exit 0
    "corpus-seed7": "0434abd24f904cfff7b69e1368060e928e6ef9c8fcf891ced2943d0caafc16b9",  # exit 0
    "corpus-stripped": "2743abb9e2c4415b22233ad27139837b80cf3881fc21c6b7c19a6f5c7b255831",  # exit 0
    "defspace-fiber-bad-b": "44b806b5d74e8891040bc49ef3b75deb4493a87153e7d156494c28d1f127493e",  # exit 2
    "defspace-fiber-double-root": "cdc9d78f246854154a657744f4ce7ebba2502e977c1f1e53e5affaf384db2c80",  # exit 0
    "defspace-fiber-fractions": "4c6a869f5b8c93398ccaecb38bcde61b900513815a39d0517531dc8a39226264",  # exit 0
    "defspace-fiber-split": "49623bdf4ba35759cdf125ebd5c078021d7043713485154bcb34da2f4dfa74dd",  # exit 0
    "defspace-fiber-wrong-length": "8457fb8748baf4e5d485ebfd2ab0fd0685a6e15db65b79f98478eb0acd83273d",  # exit 2
    "defspace-verify-n2": "398b3eccf617566eaacce21c111394528ae520818777e2545def1fc56f32d99c",  # exit 0
    "defspace-verify-n4": "43340fd6a4b26808f8e75194dc61946e2f6270e8cc23fffc354333a427e72370",  # exit 0
    "defspace-verify-n5": "81d2b73269ea8384e3cecc3b47912911ace201aed2658b91d2334fe1b997895e",  # exit 0
    "dualcomplex-classify-cubic-cone": "bd0ecf8d862146865dab7036c52a507a33263fd8e90e358b1b53c03e685db53d",  # exit 0
    "dualcomplex-classify-dot": "7f7e1cc734d2d0ae4deeb94c51b18c06e0c50c3b995d3d946b4cc390055cf013",  # exit 0
    "dualcomplex-classify-type-ii-chain": "0d4eab0e66ee7fe22a0002d8cac3d5089812297855052c7bc39d1f254dc15bd5",  # exit 0
    "dualcomplex-classify-type-ii-point": "2b9d963e1ba5d6bb9d8b9ef35b4630e8d0bd741e9f8c0f32f1c8eabce489db5b",  # exit 0
    "dualcomplex-classify-type-iii1-segment": "9d0df6eef43a567cb7b0570439aaa61353ba78baaa7c3dc12503afc3104ba25b",  # exit 0
    "dualcomplex-classify-type-iii2-disk": "527c584dd9496f894ab2bf120b6e27223b98d4fb37e13613ebb0c62162c23e1b",  # exit 0
    "dualcomplex-classify-unclassified-pair": "a6e885e435e91d3ce2fce9430cf778d38fa1304f7e1d3c4e10f4c7ccd45923ee",  # exit 0
    "dualcomplex-invariants-cubic-cone": "9083beb79ed27c40ebb508040888ef0fc424cf8edb547a4be4b4c757ea2572f8",  # exit 0
    "dualcomplex-invariants-dot": "b6f0184b2a15966199c2e180c3b8aa9e79ea3bc7b8312e4079af04c634e987ff",  # exit 0
    "dualcomplex-invariants-type-ii-chain": "d4d96c7320668e9d3314406f1af992c80a012694fd5d1f67051c19f48d10e5ba",  # exit 0
    "dualcomplex-invariants-type-ii-point": "1ca4c0764e84bd20aa77a00218801c6acc570493e515a7a2bb64f7e545230507",  # exit 0
    "dualcomplex-invariants-type-iii1-segment": "66640a1298ba7de31492b4bed4ab9091765d013b7c7eb4044f16603d3a552e77",  # exit 0
    "dualcomplex-invariants-type-iii2-disk": "2291092e951c703a8c1c29195aba6b5d9c21a060366dcdd38fc9ccf06f6a581c",  # exit 0
    "dualcomplex-invariants-unclassified-pair": "0ab67c2d33e4e9a9f91c94f7427cb8e5418d2e5a1389629e0b230d35cb70bdb1",  # exit 0
    "milnor": "c0605090c22134123d72caf4a67b1fcd6a57cffd1b607987ccc6f67b3c0bcbc4",  # exit 0
    "milnor-non-isolated": "0152be086bcefed025a8038ade61e8ebc1e1d286863bbb49e5fe92fb0dbc8400",  # exit 0
    "milnor-vars": "6103998fb2ea9570f53511fe0e6920648a5c040eacc724f3988db4dbdea257e7",  # exit 0
    "smallres-a1": "912bf6b510755640847a85b7c08cea01edf2b096e0541198d12d275da6b354fe",  # exit 0
    "smallres-a3": "4fac79bbe2bc689fe7a932553f35ab4e1730e2beb12ca4d6e691f7d491117235",  # exit 0
    "smallres-custom": "2689556523a51940fe1636748e233d62cc012c6d45ecb3ab888194141d778b6c",  # exit 0
    "smallres-inconsistent": "76cea54a2f5669aab9c73d3769699c78e936b3b33fab50b0904c8834812bc758",  # exit 1
    "smallres-lines": "d7ee366044791c3568651cb5f39a01217caaee7a6699e94feff5c8ad3c9a5bff",  # exit 0
    "smallres-missing-file": "aa74bf3c37ba085d8998e69f505f3eb8cfe5eb699cd3d38dd64f43977a19dca1",  # exit 2
    "smallres-parity": "903e853e3ff000502b97761c4ac156b374ada08d499636b7f510b215758b7563",  # exit 1
    "tjurina": "4ed93a75f70a52000c2ae11ff45afaaa009ab5e5fb30585735d3b922d1a936c2",  # exit 0
    "tjurina-deformed-cone": "ab7755126082d5284b6de3c4931e4b3dbb70e402761626a812cff578c38a2382",  # exit 0
    "tjurina-non-isolated": "a94edb56886d9e1143aeb03127c319809bf57d989c39ed749a924d22ae1506bd",  # exit 0
    "tjurina-parse-error": "b5fdf2c22b08fbbd4e9f6d4a03e865f7172618db16cbbe7911b476625f647f89",  # exit 2
    "tjurina-undeclared": "5a47f4edcf2bb96a30b14d881b7188f82732c794013f7c9cb7d42365d41552ad",  # exit 2
    "tjurina-vars": "f39c67962b50a527ad34a6d326d8f88682476166d64ab3d2a4d6972dd7995432",  # exit 0
}


def write_inputs(directory):
    """Write every input file a case reads into directory."""
    directory = Path(directory)
    for name, germ in GERMS.items():
        (directory / f"germ-{name}.json").write_text(json.dumps(germ))
    for name, config in CONFIGS.items():
        (directory / f"{name}.json").write_text(json.dumps(config))
    for name, entries in CORPORA.items():
        (directory / f"corpus-{name}.json").write_text(json.dumps(entries))


def observe(argv):
    """(exit code, stdout, stderr, DOT file or None) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    dot = Path(argv[argv.index("--dot") + 1]).read_text() if "--dot" in argv else None
    return [code, out.getvalue(), err.getvalue(), dot]


def digest(observed):
    return hashlib.sha256(json.dumps(observed).encode()).hexdigest()


def test_every_case_has_a_digest():
    assert sorted(CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    observed = observe(CASES[name])
    got = digest(observed)
    code, out, err, dot = observed
    assert got == DIGESTS.get(name), (
        f"{name}: digest {got}\nexit {code}\n--- stdout\n{out}--- stderr\n{err}"
        + (f"--- dot\n{dot}" if dot is not None else "")
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_the_schema(name, tmp_path, monkeypatch):
    jsonschema = pytest.importorskip("jsonschema")
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    out = observe(CASES[name])[1]
    if out:
        jsonschema.validate(json.loads(out), SCHEMA)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_json_dumps_indent_2_sort_keys(name, tmp_path, monkeypatch):
    # the format checked by a second route, independent of the digests
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    out = observe(CASES[name])[1]
    if out:
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("entry", ENTRIES + EXTRA_ENTRIES, ids=lambda e: e["id"])
def test_pinned_values_jsonify_after_pinning_as_before(entry):
    # run_entry jsonifies the pinned values only, not all results and checks
    op, _needs, pinned = corpus._KINDS[entry["kind"]]
    results, checks, _warnings = op(entry)
    # compared as JSON text, where true and 1 differ
    assert (json.dumps(corpus.jsonify(pinned(results, checks)), sort_keys=True)
            == json.dumps(pinned(corpus.jsonify(results), corpus.jsonify(checks)),
                          sort_keys=True))
