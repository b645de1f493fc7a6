"""Command-line surface: exit codes, formats, round trips."""

import json
import os
import resource
import subprocess
import sys

import pytest

from normcov.cli import main
from normcov.coverings import construct_delta, verify_basic_set
from normcov.cycle_types import GroupId, Parity, parity, partitions
from normcov.subgroups import IntersectAlt, class_coverage, load_catalog


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out else None), err


# --- bounds -----------------------------------------------------------------


def test_bounds_text(capsys):
    code, out, _ = run(capsys, "bounds", "11", "sym")
    assert code == 0
    assert "exact:       5" in out


def test_bounds_json(capsys):
    code, payload, _ = run_json(capsys, "bounds", "8", "alt")
    assert code == 0
    assert payload["exact"] == 2
    assert payload["lower"] == "2"


def test_bounds_band(capsys):
    code, payload, _ = run_json(capsys, "bounds", "16", "sym")
    assert code == 0
    assert payload["lower_ceil"] == 2 and payload["upper"] == 5 and payload["exact"] is None


def test_bounds_bad_degree(capsys):
    code, out, err = run(capsys, "bounds", "2", "sym")
    assert code == 2 and out == "" and "error" in err


# --- verify -----------------------------------------------------------------


def test_verify_family_ok(capsys):
    code, out, _ = run(capsys, "verify", "--family", "sym_prime", "--p", "7")
    assert code == 0 and "covered" in out


def test_verify_special_a9(capsys):
    code, _, _ = run(capsys, "verify", "--family", "special_a9")
    assert code == 0


def test_verify_bad_hypothesis(capsys):
    code, out, err = run(capsys, "verify", "--family", "sym_prime", "--p", "9")
    assert code == 2 and out == "" and "prime" in err


def test_verify_file_uncovered(capsys, tmp_path):
    bad = {
        "group": "S12",
        "provenance": "three-component candidate",
        "components": [
            {"kind": "alternating"},
            {"kind": "intransitive", "k": 5},
            {"kind": "imprimitive", "b": 3, "c": 4},
        ],
    }
    path = tmp_path / "s12_bad.json"
    path.write_text(json.dumps(bad))
    code, payload, _ = run_json(capsys, "verify", "--file", str(path))
    assert code == 1
    assert payload["report"]["covered"] is False
    assert "[8,3,1]" in payload["report"]["uncovered"]


def test_verify_missing_args(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        {"components": []},
        {"group": "S7"},
        {"group": 7, "components": [{"kind": "intransitive", "k": 2}]},
        {"group": "S7", "components": {"kind": "intransitive", "k": 2}},
        {"group": "S7", "components": [{"kind": "intransitive", "k": 9}]},
        {"group": "S7", "components": [{"kind": "sylow"}]},
        {"group": "S7", "components": ["intransitive:2"]},
        # a field that is no JSON integer is refused, not coerced
        {"group": "S7", "components": [{"kind": "intransitive", "k": 2.9}]},
        {"group": "S7", "components": [{"kind": "intransitive", "k": "2"}]},
        {"group": "S7", "components": [{"kind": "intransitive", "k": True}]},
        {"group": "S8", "components": [{"kind": "imprimitive", "b": 2.0, "c": 4}]},
        {"group": "S8", "components": [{"kind": "imprimitive", "b": 2, "c": "4"}]},
        {"group": "S7", "components": [{"kind": "named", "name": "AGL1(7)", "class": True}]},
        {"group": "S7", "components": [{"kind": "named", "name": 7}]},
        {"group": "S7", "components": [{"kind": "intransitive", "k": 2}], "expected_size": 1.5},
        {"group": "S7", "components": [{"kind": "intransitive", "k": 2}], "expected_size": True},
        {"group": "S7", "components": [{"kind": "intransitive", "k": 2}], "provenance": {"x": 1}},
        {"group": "S7", "components": [{"kind": "intransitive", "k": 2}], "provenance": 7},
    ],
)
def test_verify_malformed_file(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "verify", "--file", str(path), "--format", fmt)
        assert code == 2 and out == "" and err.startswith("error: "), (doc, err)


def test_verify_unreadable_file(capsys, tmp_path):
    # one loader reads every JSON file, so these name the file like a bad catalog does
    (tmp_path / "cut.json").write_text('{"group": "S7", "components": [')
    (tmp_path / "empty.json").write_text("")
    for name, word in (("missing.json", "basic set file not found: "), ("cut.json", "malformed basic set file "),
                       ("empty.json", "malformed basic set file ")):
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "verify", "--file", str(tmp_path / name), "--format", fmt)
            assert code == 2 and out == "" and err.startswith(f"error: {word}{tmp_path / name}"), err


@pytest.mark.parametrize(
    "argv, word",
    [
        (["--family", "upper_sym", "--n", "9", "--group", "alt"], "'group'"),
        (["--family", "sym_prime", "--n", "7"], "'p'"),
        (["--family", "special_a9", "--n", "9"], "'n'"),
        (["--family", "prime_power", "--p", "2"], "'alpha'"),
        # degrees above the enumeration bound, caught by the walk itself
        (["--family", "prime_power", "--p", "2", "--alpha", "6"], "1..60"),
        (["--family", "two_primes", "--p", "3", "--q", "23"], "1..60"),
        (["--family", "upper_sym", "--n", "62"], "1..60"),
        # huge degrees are refused before a builder makes O(n) components
        (["--family", "upper_sym", "--n", "100000000"], "degree 100000000 outside enumeration bound 1..60"),
        (["--family", "prime_power", "--p", "2", "--alpha", "100"], f"degree {2**100} outside"),
        (["--family", "sym_prime", "--p", "100000000000000000039"], "degree 100000000000000000039 outside"),
        (["--family", "upper_alt_odd", "--n", "10000001"], "degree 10000001 outside enumeration bound 1..60"),
        # the builder's own hypotheses are still checked first
        (["--family", "upper_sym", "--n", "61"], "must be composite"),
        # a parameter the family does not take, and one it needs, named from the builder's own signature
        (["--family", "sym_prime", "--p", "7", "--n", "9"], "unexpected keyword argument 'n'"),
        (["--family", "two_primes", "--p", "3"], "missing a required argument: 'q'"),
    ],
)
def test_verify_bad_family_parameters(capsys, argv, word):
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "verify", *argv, "--format", fmt)
        assert code == 2 and out == "" and err.startswith("error: ") and word in err, (argv, err)


def _capped(*argv, timeout=10):
    """Run the CLI in a child with 1 GiB of address space, so a runaway allocation fails fast."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    cmd = [sys.executable, "-m", "normcov.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, preexec_fn=cap)


def test_family_degree_refused_before_its_power_is_computed():
    # p**alpha for a huge alpha would take gigabytes and end in a MemoryError,
    # exit 1, the "does not cover" code; or print past Python's 4300-digit limit
    cases = [
        (["prime_power", "--p", "2", "--alpha", "100000000000"], "2**100000000000"),
        (["prime_power", "--p", "2", "--alpha", "1000000"], "2**1000000"),
        (["two_prime_powers", "--p", "2", "--q", "3", "--alpha", "1000000", "--beta", "1"], "2**1000000 * 3**1"),
        # a degree short enough to compute is still named in full
        (["prime_power", "--p", "2", "--alpha", "7"], "128"),
    ]
    for argv, degree in cases:
        proc = _capped("verify", "--family", *argv)
        assert (proc.returncode, proc.stdout) == (2, ""), (argv, proc.stderr)
        assert proc.stderr == f"error: degree {degree} outside enumeration bound 1..60\n", proc.stderr


def test_verify_roundtrip_matches_direct(capsys, tmp_path):
    basic = construct_delta("special_s10")
    path = tmp_path / "s10.json"
    path.write_text(json.dumps(basic.to_json()))
    code, payload, _ = run_json(capsys, "verify", "--file", str(path))
    assert code == 0
    direct = verify_basic_set(basic).to_json()
    assert payload["report"] == direct


def test_verify_json_is_one_dump_of_the_payload(capsys):
    # stdout is written as it is encoded; its text must be that of json.dumps, split A_n classes included
    for family in ("upper_sym", "upper_alt_even"):
        basic = construct_delta(family, n=12)
        payload = {"basic_set": basic.to_json(), "report": verify_basic_set(basic).to_json()}
        code, out, err = run(capsys, "verify", "--family", family, "--n", "12", "--format", "json")
        assert (code, err) == (0, "")
        assert out == json.dumps(payload, indent=2) + "\n", family
    assert "[11,1]+" in payload["report"]["coverage"]["alt:intransitive:1"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc/self/status")
@pytest.mark.parametrize("n, ceiling_mb", [(40, 60), (45, 48)])
def test_verify_json_in_bounded_memory(n, ceiling_mb):
    # The child prints its own peak RSS: ru_maxrss from os.wait4 starts at
    # the spawner's high-water mark, here pytest's. At 40 (S_2 wr S_20) the
    # whole report took about 80 MB when each component's classes were held
    # as ClassIds and the JSON text was built whole before it was written. At
    # 45 (S_3 wr S_15) classes reach the wreath search, and the run took
    # about 66 MB when each of its 88,958 queries was kept in a cache.
    code = (
        "import sys\n"
        "from normcov.cli import main\n"
        f"code = main(['verify', '--family', 'upper_sym', '--n', '{n}', '--format', 'json'])\n"
        "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "print(code, hwm.split()[1], file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120
    )
    status, kib = map(int, proc.stderr.split())
    assert status == 0
    assert kib <= ceiling_mb * 1024, f"peak RSS {kib / 1024:.1f} MB above the {ceiling_mb} MB ceiling"


# --- gamma and table3 ---------------------------------------------------------


def test_gamma_s9(capsys):
    code, payload, _ = run_json(capsys, "gamma", "9", "sym")
    assert code == 0
    assert payload["gamma"] == 4 and payload["exact"] is True
    assert len(payload["witness"]["components"]) == 4


def test_gamma_a12_computed_value(capsys):
    code, payload, _ = run_json(capsys, "gamma", "12", "alt")
    assert code == 0
    assert payload["gamma"] == 3


def test_gamma_no_catalog(capsys, tmp_path):
    code, out, err = run(capsys, "gamma", "13", "sym")
    assert code == 2 and out == "" and "catalog" in err
    # a catalog file whose fields have the wrong JSON type is an error, not a failure to cover
    subgroups = [{"kind": "intransitive", "k": 2}, {"kind": "named", "name": "AGL1(5)"}]
    good = {"group": "S5", "complete": True, "subgroups": subgroups}
    path = tmp_path / "s5.json"
    path.write_text(json.dumps(good))
    assert run(capsys, "gamma", "5", "sym", "--catalog", str(path))[0] == 0
    for bad, word in (
        ({"group": 5}, "'group' must be a string"),
        ({"group": ["S5"]}, "'group' must be a string"),
        ({"complete": "false"}, "'complete' must be true or false"),
        ({"complete": 0}, "'complete' must be true or false"),
        ({"subgroups": {"kind": "alternating"}}, "'subgroups' must be a list"),
        ({"subgroups": [{"kind": "named", "name": 5}]}, "'name' must be a string"),
    ):
        path.write_text(json.dumps({**good, **bad}))
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "gamma", "5", "sym", "--catalog", str(path), "--format", fmt)
            assert code == 2 and out == "" and word in err, (bad, err)


def test_undecodable_builtin_catalog(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"group": "S9", ')
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "gamma", "9", "sym", "--catalog", str(bad), "--format", fmt)
        assert code == 2 and out == "" and err.startswith(f"error: malformed catalog file {bad}: "), err
    assert run(capsys, "gamma", "9", "sym")[0] == 0
    assert run(capsys, "catalog", "9", "sym")[0] == 0
    for argv, g in ((["gamma", "13", "sym"], "S13"), (["catalog", "13", "alt"], "A13")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: no built-in catalog for {g} (supply a catalog file)\n")


def test_gamma_user_catalog_incomplete(capsys, tmp_path):
    cat = {
        "group": "S7",
        "complete": False,
        "subgroups": [
            {"kind": "alternating"},
            {"kind": "intransitive", "k": 1},
            {"kind": "intransitive", "k": 2},
            {"kind": "intransitive", "k": 3},
            {"kind": "named", "name": "AGL1(7)", "class": 1},
        ],
    }
    path = tmp_path / "s7.json"
    path.write_text(json.dumps(cat))
    code, out, _ = run(capsys, "gamma", "7", "sym", "--catalog", str(path))
    assert code == 0 and "upper bound" in out


def test_table3(capsys):
    code, payload, _ = run_json(capsys, "table3")
    assert code == 0
    assert [payload["sym"][str(n)] for n in range(3, 13)] == [2, 2, 2, 2, 3, 3, 4, 3, 5, 4]
    assert [payload["alt"][str(n)] for n in range(4, 13)] == [2, 2, 2, 2, 2, 3, 3, 4, 3]


# --- membership and types ---------------------------------------------------------


def test_membership_examples(capsys):
    code, payload, _ = run_json(capsys, "membership", "12", "imprimitive:3,4", "[1,2,9]")
    assert code == 0 and payload["member"] is True

    code, payload, _ = run_json(capsys, "membership", "12", "named:M12", "[2,2,2,6]")
    assert code == 0 and payload["member"] is False

    code, payload, _ = run_json(capsys, "membership", "12", "named:M12", "[3,9]")
    assert code == 0 and payload["member"] is False

    code, payload, _ = run_json(capsys, "membership", "8", "alt:intransitive:3", "[3,3,1,1]")
    assert code == 0 and payload["member"] is True


def test_membership_alt_rejects_all_even_named_groups(capsys):
    # the same rule as verify: these groups already lie inside A_n
    for n, d, t in (("11", "alt:named:M11", "[11]"), ("12", "alt:named:M12", "[11,1]"), ("7", "alt:named:PSL2(7)", "[7]")):
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "membership", n, d, t, "--format", fmt)
            assert code == 2 and out == "" and "alternating group" in err, (d, fmt)
    code, out, _ = run(capsys, "membership", "8", "alt:intransitive:3", "[3,3,1,1]")
    assert code == 0
    assert out == "[3,3,1,1] in alt:intransitive:3: yes (even type contained in the intersected class)\n"
    # a refused descriptor is refused whatever the parity of the type; an odd type is in no alt:X
    odd = "[2,1,1,1,1,1,1,1,1,1,1]"
    for d, word in (("alt:named:M12", "alternating group"), ("alt:named:Bogus", "no generator record named 'Bogus'")):
        for t in (odd, "[11,1]"):
            code, out, err = run(capsys, "membership", "12", d, t)
            assert code == 2 and out == "" and word in err, (d, t)
    code, payload, _ = run_json(capsys, "membership", "12", "alt:intransitive:1", odd)
    assert code == 0 and payload["member"] is False


def test_missing_second_class_refused_by_name(capsys, tmp_path):
    # class 2 is derived from class 1, so a record without one must still be refused
    named = {"kind": "named", "name": "AGL1(5)", "class": 2}
    docs = {
        "basic.json": {"group": "S5", "components": [named, {"kind": "intransitive", "k": 1}]},
        "s5.json": {"group": "S5", "complete": False, "subgroups": [named, {"kind": "alternating"}]},
        "a5.json": {"group": "A5", "complete": False, "subgroups": [{"kind": "intersect_alt", "inner": named}]},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    for argv in (
        ["membership", "5", "named:AGL1(5):2", "[5]"],
        ["membership", "5", "alt:named:AGL1(5):2", "[5]"],
        ["verify", "--file", str(tmp_path / "basic.json")],
        ["gamma", "5", "sym", "--catalog", str(tmp_path / "s5.json")],
        ["gamma", "5", "alt", "--catalog", str(tmp_path / "a5.json")],
    ):
        for fmt in ("text", "json"):
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert code == 2 and out == "" and "AGL1(5) does not have a class 2" in err, (argv, err)


def test_membership_errors(capsys):
    code, out, _ = run(capsys, "membership", "12", "imprimitive:3,4", "[1,2]")
    assert code == 2 and out == ""
    for text in ("what:3", "imprimitive:3", "imprimitive:3,4,5", "intransitive:x"):
        code, out, err = run(capsys, "membership", "12", text, "[12]")
        assert (code, out, err) == (2, "", f"error: cannot parse descriptor '{text}'\n"), text
    # a part above k is skipped, so no bit mask as wide as a huge degree is built
    n = "100000000000000000038"
    code, payload, err = run_json(capsys, "membership", n, "intransitive:1", f"[{n}]")
    assert code == 0 and payload["member"] is False and err == "", err


def test_membership_agrees_with_the_walk(capsys):
    # every built-in catalog descriptor and type; alt:X only holds even types
    checked = 0
    for n in range(3, 13):
        for g in (GroupId.sym(n), GroupId.alt(n)) if n >= 4 else (GroupId.sym(n),):
            for d in load_catalog(g).descriptors:
                walk = {c.ctype for c in class_coverage(d, g)}
                for t in partitions(n):
                    if isinstance(d, IntersectAlt) and parity(t) is Parity.ODD:
                        continue
                    code, payload, _ = run_json(capsys, "membership", str(n), str(d), str(t))
                    assert code == 0 and payload["member"] == (t in walk), (str(g), str(d), str(t))
                    checked += 1
    assert checked == 3407


def test_membership_at_a_huge_degree():
    # divisors of a 21-digit part come from its factorization, not trial division,
    # and a subset sum never shifts its mask by a part above its target
    n = "100000000000000000038"
    for d, t in (("imprimitive:2,50000000000000000019", f"[{n}]"), ("intransitive:1", "[100000000000000000037,1]")):
        proc = subprocess.run(
            [sys.executable, "-m", "normcov.cli", "membership", n, d, t],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert proc.stdout.startswith(f"{t} in {d}: yes"), proc.stdout
    # S_3 wr S_c, c the least prime above 10^20, meets no closed rule, so the type goes to the
    # search, which takes the divisors of v = p*q (the least primes above 10^9 and 3*10^10) by rho
    c, v = 100000000000000000039, 1000000007 * 30000000001
    d = f"imprimitive:3,{c}"
    proc = subprocess.run(
        [sys.executable, "-m", "normcov.cli", "membership", str(3 * c), d, f"[{v},{3 * c - v - 1},1]"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout.startswith(f"[{3 * c - v - 1},{v},1] in {d}: no"), proc.stdout
    # a mask as wide as a 20-digit target is refused before it is built
    k = "50000000000000000019"
    proc = subprocess.run(
        [sys.executable, "-m", "normcov.cli", "membership", n, f"intransitive:{k}", f"[{k},{k}]"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith(f"error: subset sums up to k={k} need more than "), proc.stderr


def test_membership_with_blocks_of_two_or_two_blocks_at_a_huge_degree():
    # S_2 wr S_c pairs the odd parts, so a 31-digit degree needs no primality test;
    # S_b wr S_2 with b past the subset-sum mask goes to the search, which answers too
    cases = (
        (
            "2000000000000000000000000000114",
            "imprimitive:2,1000000000000000000000000000057",
            "[1000000000000000000000000000059,1000000000000000000000000000055]",
        ),
        ("200000000000000000000", "imprimitive:100000000000000000000,2", "[100000000000000000001,99999999999999999999]"),
    )
    for n, d, t in cases:
        proc = _capped("membership", n, d, t)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        assert proc.stdout.startswith(f"{t} in {d}: no "), proc.stdout


def test_too_deep_input_is_an_error(capsys, tmp_path):
    # JSON nested past Python's recursion limit is an error, not a traceback with the "does not cover" code
    inner = '{"kind": "intransitive", "k": 1}'
    for _ in range(5000):
        inner = '{"kind": "intersect_alt", "inner": ' + inner + "}"
    (tmp_path / "basic.json").write_text('{"group": "A7", "components": [' + inner + "]}")
    (tmp_path / "catalog.json").write_text("[" * 5000 + "]" * 5000)
    for argv in (
        ["verify", "--file", str(tmp_path / "basic.json")],
        ["gamma", "5", "sym", "--catalog", str(tmp_path / "catalog.json")],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: "), (argv[0], err)
    # a type of many parts nests nothing: wreath membership answers on every interpreter
    for parts, answer in (["1"] * 1000, "yes"), (["3"] + ["1"] * 997, "no"):
        t = "[" + ",".join(parts) + "]"
        code, out, err = run(capsys, "membership", "1000", "imprimitive:2,500", t)
        assert code == 0 and err == "" and out.startswith(f"{t} in imprimitive:2,500: {answer} "), err
    # nor does the search recurse per part, so a low recursion limit leaves it answering
    code = (
        "import sys\n"
        "from normcov.cycle_types import CycleType\n"
        "from normcov.subgroups import Imprimitive, contains_type\n"
        "sys.setrecursionlimit(60)\n"
        "cases = (2, (1,) * 4000), (2, (3,) + (1,) * 3997), (4, (3, 2) + (1,) * 3995), (4, (3, 3) + (2,) * 1997)\n"
        "for b, parts in cases:\n"
        "    print(contains_type(Imprimitive(4000, b, 4000 // b), CycleType(parts)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert proc.stdout.split() == ["True", "False", "True", "False"]


def test_closed_forms_served_above_the_old_data(capsys):
    # AGL1(p) and PGL2(p) need no generator record, so no degree limits them
    code, out, _ = run(capsys, "membership", "61", "named:AGL1(61)", "[61]")
    assert code == 0 and out.startswith("[61] in named:AGL1(61): yes")
    code, payload, _ = run_json(capsys, "membership", "62", "named:PGL2(61)", "[31,31]")
    assert code == 0 and payload["member"] is True
    # the partition walk's bound still holds for verify
    code, out, err = run(capsys, "verify", "--family", "sym_prime", "--p", "61")
    assert code == 2 and out == "" and "degree 61 outside enumeration bound 1..60" in err, err
    # only the canonical spelling is a closed form
    code, out, err = run(capsys, "membership", "7", "named:AGL1(07)", "[7]")
    assert code == 2 and out == "" and "no generator record named 'AGL1(07)'" in err, err


def test_bounds_at_a_huge_prime_degree():
    # primality of a 21-digit degree is decided by Miller-Rabin, not trial division
    proc = subprocess.run(
        [sys.executable, "-m", "normcov.cli", "bounds", "100000000000000000039", "sym"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert "exact:       50000000000000000019" in proc.stdout


def test_bounds_at_a_product_of_two_large_primes():
    # 10000000019 * 10000000033: Pollard's rho splits it where trial division would not end
    proc = subprocess.run(
        [sys.executable, "-m", "normcov.cli", "bounds", "100000000520000000627", "sym"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert "exact:       50000000250000000289" in proc.stdout


def test_bounds_beyond_the_exact_primality_test_is_refused(capsys):
    # 2 times the least strong pseudoprime to the 13 Miller-Rabin bases up to 41
    code, out, err = run(capsys, "bounds", "6634088129359774771923962", "sym")
    assert (code, out) == (2, "")
    assert "3317044064679887385961981 has no prime factor up to 1000" in err, err


def test_closed_form_name_with_a_huge_prime_is_refused_at_once():
    # a p of more than 4 digits is never tested for primality, at any degree
    p = "100000000000000000039"
    for name, n in ((f"AGL1({p})", "5"), (f"PGL2({p})", "5"), (f"AGL1({p})", p)):
        proc = subprocess.run(
            [sys.executable, "-m", "normcov.cli", "membership", n, f"named:{name}", f"[{n}]"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (2, ""), name
        assert proc.stderr == f"error: no generator record named {name!r}\n", proc.stderr


def test_types_t_family(capsys):
    code, payload, _ = run_json(capsys, "types", "11", "t")
    assert code == 0
    assert payload["types"] == ["[9,1,1]", "[7,2,2]", "[5,3,3]", "[4,4,3]"]


def test_types_u_family(capsys):
    code, out, _ = run(capsys, "types", "11", "u")
    assert code == 0
    assert out.split() == ["[9,2]", "[8,3]", "[7,4]", "[6,5]"]


def test_types_degree_bound():
    # u and t would list about n/2 types; above 10^6 they are refused before any is built
    for n, family in (("1000001", "u"), ("1000000000000", "t")):
        proc = subprocess.run(
            [sys.executable, "-m", "normcov.cli", "types", n, family],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (2, ""), n
        assert proc.stderr == f"error: types {family} needs n <= 1000000, got {n}\n", proc.stderr
    # t_prime lists up to one type per integer of its interval, so the same bound holds its width
    for interval in ("[1,1000000000000)", "[1,1000001]"):
        proc = subprocess.run(
            [sys.executable, "-m", "normcov.cli", "types", "6000000000000", "t_prime", "--interval", interval],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (2, ""), interval
        want = f"error: types t_prime needs an interval of at most 1000000 integers, got {interval}\n"
        assert proc.stderr == want, proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "normcov.cli", "types", "1000000", "t"], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0 and proc.stdout.startswith("[999997,2,1] [999991,6,3] ")


def test_types_t_prime(capsys):
    code, payload, _ = run_json(capsys, "types", "18", "t_prime", "--interval", "[1,3)")
    assert code == 0 and payload["types"] == ["[9,5,4]"]
    code, out, _ = run(capsys, "types", "18", "t_prime")
    assert code == 2 and out == ""
    # a zero denominator is a malformed interval, not a traceback with the "does not cover" code
    for interval in ("[1/0,2)", "[1,2/0)", "[0/0,1)"):
        code, out, err = run(capsys, "types", "12", "t_prime", "--interval", interval)
        assert (code, out, err) == (2, "", f"error: cannot parse interval {interval!r}: zero denominator\n"), interval


def test_types_t_prime_interval_with_an_exponent_refused_at_once():
    # Fraction would expand 1e99999999 digit by digit, for minutes
    for interval in ("[1,1e99999999)", "[1e-99999999,2)", "[1,1e9999)"):
        proc = _capped("types", "18", "t_prime", "--interval", interval)
        assert (proc.returncode, proc.stdout) == (2, ""), interval
        assert proc.stderr == f"error: cannot parse interval {interval!r}\n", proc.stderr


def test_types_t_prime_interval_past_the_digit_limit_refused(capsys):
    # Python refuses to convert an integer string of more than 4300 digits
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        pytest.skip("this Python converts integer strings of any length")
    for interval in (f"[1,{'9' * (limit + 1)})", f"[1,2/{'9' * (limit + 1)})", f"[0.{'9' * (limit + 1)},2)"):
        code, out, err = run(capsys, "types", "18", "t_prime", "--interval", interval)
        want = f"error: cannot parse interval {interval!r}: an endpoint exceeds the limit of {limit} digits\n"
        assert (code, out, err) == (2, "", want), interval[:20]


def test_types_t_prime_outside_the_half_third_names_the_bound_reduced(capsys):
    # n = 6k gives m = n/3 = 2k, so the bound m/2 = k is always an integer
    for n, interval in ((12, "[1,2]"), (18, "[1,4)"), (42, "[0,3)")):
        code, out, err = run(capsys, "types", str(n), "t_prime", "--interval", interval)
        want = f"error: interval {interval} not contained in [1, {n // 6})\n"
        assert (code, out, err) == (2, "", want), n


# --- catalog dump -------------------------------------------------------------------


def test_catalog_dump(capsys):
    code, payload, _ = run_json(capsys, "catalog", "12", "alt")
    assert code == 0
    assert payload["group"] == "A12" and payload["complete"] is True
    assert len(payload["subgroups"]) == 11


def test_cli_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "normcov.cli", "types", "11", "u"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "[9,2]" in proc.stdout


def test_closed_stdout_exits_quietly():
    # The reader is gone before table3 (about a second of work) writes.
    proc = subprocess.Popen(
        [sys.executable, "-m", "normcov.cli", "table3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert b"Traceback" not in err and b"BrokenPipe" not in err


# --- argument parsing ---------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([], id="no command"),
        pytest.param(["frobnicate", "5"], id="unknown command"),
        pytest.param(["verify", "--family", "upper_sym", "--n", "x"], id="bad int"),
        pytest.param(["bounds", "5", "sideways"], id="bad choice"),
        pytest.param(["bounds", "5"], id="missing positional"),
        pytest.param(["bounds", "5", "sym", "extra"], id="extra positional"),
        pytest.param(["bounds", "5", "sym", "--bogus"], id="unknown option"),
        pytest.param(["verify", "--n", "12", "--family"], id="option without its value"),
        pytest.param(["verify", "--f", "upper_sym"], id="ambiguous prefix"),
    ],
)
def test_argument_errors_keep_the_one_line_contract(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1, err


def test_argument_forms_kept_from_argparse():
    proc = _capped("bounds", "8", "alt", "--format=json")
    assert proc.returncode == 0 and json.loads(proc.stdout)["exact"] == 2
    full = _capped("verify", "--family", "sym_prime", "--p", "7")
    prefix = _capped("verify", "--fam", "sym_prime", "--p", "7")
    assert full.returncode == prefix.returncode == 0 and full.stdout == prefix.stdout != ""
    # a repeated option takes its last value
    proc = _capped("verify", "--family", "upper_sym", "--n", "12", "--n", "14")
    assert proc.returncode == 0 and proc.stdout.startswith("group S14:"), proc.stderr
    # a negative integer is a positional, refused by the library itself
    proc = _capped("bounds", "-5", "sym")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: S_n needs degree >= 3, got -5\n")
    small = _capped("verify", "--family", "upper_sym", "--n", "12")
    big = _capped("verify", "--big-blocks", "--family", "upper_sym", "--n", "12")
    assert "  imprimitive:2,6\n" in small.stdout and "  imprimitive:6,2\n" in big.stdout, (small.stdout, big.stdout)


_FLAGS = {
    "bounds": [],
    "verify": ["--file", "--family", "--n", "--p", "--q", "--alpha", "--beta", "--group", "--big-blocks"],
    "gamma": ["--catalog"],
    "table3": [],
    "membership": [],
    "types": ["--interval"],
    "catalog": [],
}


def test_help_exits_0_and_names_every_command_and_flag():
    for flag in ("-h", "--help"):
        proc = _capped(flag)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        assert proc.stdout.startswith("usage: normcov") and all(f"  {cmd} " in proc.stdout for cmd in _FLAGS)
    for cmd, flags in _FLAGS.items():
        proc = _capped(cmd, "--help")
        assert (proc.returncode, proc.stderr) == (0, ""), (cmd, proc.stderr)
        assert proc.stdout.startswith(f"usage: normcov {cmd} ")
        assert all(f"[{flag}" in proc.stdout for flag in ["-h", "--format", *flags]), (cmd, proc.stdout)


# --- output stability ---------------------------------------------------------------

_SEED_COMMANDS = [
    ["table3"],
    ["gamma", "12", "alt"],
    ["catalog", "12", "alt"],
    ["verify", "--family", "special_a9"],
    ["verify", "--family", "upper_sym", "--n", "12"],
    ["bounds", "15", "sym"],
    ["membership", "12", "named:M12:2", "[11,1]"],
    ["types", "18", "t"],
]


def test_stdout_does_not_depend_on_the_hash_seed():
    # set and dict orders of strings change with PYTHONHASHSEED; no output may follow them
    for argv in _SEED_COMMANDS:
        for fmt in ("text", "json"):
            outs = set()
            for seed in ("0", "1"):
                proc = subprocess.run(
                    [sys.executable, "-m", "normcov.cli", *argv, "--format", fmt],
                    capture_output=True,
                    timeout=60,
                    env={**os.environ, "PYTHONHASHSEED": seed},
                )
                assert proc.returncode == 0 and proc.stdout, (argv, fmt, proc.stderr)
                outs.add(proc.stdout)
            assert len(outs) == 1, (argv, fmt)
