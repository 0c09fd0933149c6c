#!/usr/bin/env python3
"""Self-test for kcheck: each rule class must reject its seeded fixture,
the clean fixture must pass, and the real tree must be clean.

Run from the repo root (ctest does):  python3 tools/kcheck/test_kcheck.py
One case:   python3 tools/kcheck/test_kcheck.py FixtureRejection.test_buf_flags
List cases: python3 tools/kcheck/test_kcheck.py --list
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
KCHECK = os.path.join(HERE, "kcheck.py")
TESTDATA = os.path.join(HERE, "testdata")
REPO = os.path.dirname(os.path.dirname(HERE))


def run_kcheck(*args):
    proc = subprocess.run(
        [sys.executable, KCHECK, "--json"] + list(args),
        capture_output=True, text=True, cwd=REPO)
    if proc.returncode == 2:
        raise RuntimeError("kcheck usage error: %s" % proc.stderr)
    return proc.returncode, json.loads(proc.stdout)


def fixture(name):
    return os.path.join(TESTDATA, name)


class FixtureRejection(unittest.TestCase):
    """Each seeded-violation fixture must produce its rule's finding."""

    def assert_rule(self, findings, rule, substr):
        hits = [f for f in findings if f["rule"] == rule]
        self.assertTrue(hits, "expected a %s finding, got: %s" % (rule, findings))
        self.assertTrue(any(substr in f["message"] for f in hits),
                        "no %s finding mentions %r: %s" % (rule, substr, hits))

    def test_interrupt_sleep(self):
        rc, findings = run_kcheck(fixture("bad_interrupt_sleep.cc"))
        self.assertEqual(rc, 1)
        self.assert_rule(findings, "interrupt-sleep", "CpuSystem::Sleep")
        # The report must show the full call chain through the unannotated
        # intermediary, not just the endpoint.
        self.assert_rule(findings, "interrupt-sleep", "HandlePacket")

    def test_undominated_charge(self):
        rc, findings = run_kcheck(fixture("bad_charge.cc"))
        self.assertEqual(rc, 1)
        self.assert_rule(findings, "undominated-charge", "Meter::Account")
        # The dominated and annotated call sites must NOT be flagged.
        msgs = " ".join(f["message"] for f in findings)
        self.assertNotIn("Tally", msgs)
        self.assertNotIn("IrqMeter", msgs)

    def test_buf_flags(self):
        rc, findings = run_kcheck(fixture("bad_buf_flags.cc"))
        self.assertEqual(rc, 1)
        self.assert_rule(findings, "buf-double-release", "DoubleRelease")
        self.assert_rule(findings, "buf-release-unowned", "stray")
        msgs = " ".join(f["message"] for f in findings)
        self.assertNotIn("ReleaseTwiceLegit", msgs)
        self.assertNotIn("BranchExclusive", msgs)

    def test_guard_violation(self):
        rc, findings = run_kcheck(fixture("bad_guard.cc"))
        self.assertEqual(rc, 1)
        # Bare access from the wrong context.
        self.assert_rule(findings, "guard-violation", "user_bytes_")
        # ANY accessor vs a narrower guard set.
        self.assert_rule(findings, "guard-violation", "Anywhere")
        # Receiver-qualified access resolved through the member-type table.
        self.assert_rule(findings, "guard-violation", "Watcher::Poll")
        msgs = " ".join(f["message"] for f in findings)
        for quiet in ("Syscall", "Tick", "Helper", "shared_"):
            self.assertNotIn(quiet, msgs)

    def test_annotation_mismatch(self):
        rc, findings = run_kcheck(fixture("bad_annotation_mismatch.cc"))
        self.assertEqual(rc, 1)
        self.assert_rule(findings, "annotation-mismatch", "Pump::Drain")
        msgs = " ".join(f["message"] for f in findings)
        self.assertNotIn("Fill", msgs)
        self.assertNotIn("Stop", msgs)

    def test_unknown_order_channel(self):
        rc, findings = run_kcheck(fixture("bad_data_annotations.cc"))
        self.assertEqual(rc, 1)
        self.assert_rule(findings, "unknown-order-channel", "mailbox")
        self.assert_rule(findings, "unknown-order-channel", "hypervisor")
        msgs = " ".join(f["message"] for f in findings)
        self.assertNotIn("posted_", msgs)
        self.assertNotIn("count_", msgs)

    def test_stale_waiver(self):
        rc, findings = run_kcheck(fixture("bad_stale_waiver.cc"))
        self.assertEqual(rc, 1)
        self.assert_rule(findings, "stale-waiver", "undominated-charge")
        self.assert_rule(findings, "stale-waiver", "unknown rule")

    def test_mutable_global(self):
        rc, findings = run_kcheck(fixture("bad_mutable_global.cc"))
        self.assertEqual(rc, 1)
        for name in ("g_serial", "g_name", "t_depth", "count_", "detector",
                     "cache"):
            self.assert_rule(findings, "mutable-global", "'%s'" % name)
        # Constants, const pointers, constexpr members, locals and the
        # waived definition stay quiet.
        msgs = " ".join(f["message"] for f in findings)
        for name in ("kLimit", "kLabel", "kTable", "kMax", "kOnce", "local",
                     "live_", "'one'"):
            self.assertNotIn(name, msgs)
        self.assertEqual(len(findings), 6, findings)

    def test_annotation_conflict(self):
        rc, findings = run_kcheck(fixture("bad_annotation_conflict.cc"))
        self.assertEqual(rc, 1)
        self.assert_rule(findings, "annotation-conflict", "Pump::Drain")
        msgs = " ".join(f["message"] for f in findings)
        self.assertNotIn("Fill", msgs)

    def test_double_acquire(self):
        rc, findings = run_kcheck(fixture("bad_double_acquire.cc"))
        self.assertEqual(rc, 1)
        # Direct re-acquire, closure through a helper, and EXCLUDES breach.
        self.assert_rule(findings, "double-acquire", "Dev::Twice")
        self.assert_rule(findings, "double-acquire", "Dev::Locked")
        self.assert_rule(findings, "double-acquire", "IKDP_EXCLUDES(devq)")
        msgs = " ".join(f["message"] for f in findings)
        self.assertNotIn("Fine", msgs)
        self.assertNotIn("AlsoCallsUnlocked", msgs)

    def test_sleep_under_spinlock(self):
        rc, findings = run_kcheck(fixture("bad_sleep_under_spinlock.cc"))
        self.assertEqual(rc, 1)
        self.assert_rule(findings, "sleep-under-spinlock", "Net::Direct")
        self.assert_rule(findings, "sleep-under-spinlock", "Net::Indirect")
        self.assert_rule(findings, "sleep-under-spinlock", "co_await")
        self.assert_rule(findings, "sleep-under-spinlock", "SleepLock 'gate'")
        msgs = " ".join(f["message"] for f in findings)
        self.assertNotIn("Signals", msgs)

    def test_lock_order_cycle(self):
        rc, findings = run_kcheck(fixture("bad_lock_order_cycle.cc"))
        self.assertEqual(rc, 1)
        self.assert_rule(findings, "lock-order-cycle",
                         "ranks must strictly increase")
        self.assert_rule(findings, "lock-order-cycle", "cycle between")
        self.assert_rule(findings, "lock-order-cycle", "redeclared with rank")
        # Pair: the declared IKDP_ACQUIRED_AFTER order contradicts the ranks.
        self.assert_rule(findings, "lock-order-cycle",
                         "declared IKDP_ACQUIRED_AFTER")
        # AB follows the declared order (and b_'s IKDP_ACQUIRED_AFTER(a_)
        # agrees with the ranks); only BA and the declarations are at fault.
        for f in findings:
            self.assertNotIn("Sys::AB acquires", f["message"])
            self.assertNotIn("'beta' (rank 20) declared", f["message"])

    def test_requires_contract(self):
        rc, findings = run_kcheck(fixture("bad_requires.cc"))
        self.assertEqual(rc, 1)
        self.assert_rule(findings, "lock-guard-violation",
                         "IKDP_REQUIRES(tbl)")
        self.assert_rule(findings, "lock-guard-violation", "Tbl::Careless")
        # The helper's own guarded read rides the declared contract even
        # though one caller is lock-free (the caller intersection alone
        # would be empty here).
        for f in findings:
            self.assertNotIn("accesses Tbl::n_", f["message"])
            self.assertNotIn("Tbl::Size ", f["message"])

    def test_unreleased_lock(self):
        rc, findings = run_kcheck(fixture("bad_unreleased_lock.cc"))
        self.assertEqual(rc, 1)
        self.assert_rule(findings, "unreleased-lock", "Q::Leak")
        self.assert_rule(findings, "unreleased-lock", "Q::ForgetsEnd")
        self.assert_rule(findings, "unreleased-lock", "lambda body")
        msgs = " ".join(f["message"] for f in findings)
        for quiet in ("Q::Begin", "Q::End ", "Balanced", "GuardScope"):
            self.assertNotIn(quiet, msgs)

    def test_lock_guard_violation(self):
        rc, findings = run_kcheck(fixture("bad_lock_guard.cc"))
        self.assertEqual(rc, 1)
        self.assert_rule(findings, "lock-guard-violation", "Ring::Peek")
        self.assert_rule(findings, "lock-guard-violation", "Probe::Steal")
        self.assert_rule(findings, "lock-guard-violation", "phantom")
        msgs = " ".join(f["message"] for f in findings)
        for quiet in ("Push", "HeldHelper", "Drive", "Channel"):
            self.assertNotIn(quiet, msgs)

    def test_errno_clobber(self):
        rc, findings = run_kcheck(fixture("bad_errno_clobber.cc"))
        self.assertEqual(rc, 1)
        # Unconditional overwrite after the guarded first store.
        self.assert_rule(findings, "errno-clobber", "Chan::WriteDone")
        # Store on the proven-nonzero edge.
        self.assert_rule(findings, "errno-clobber", "Chan::Cancel")
        msgs = " ".join(f["message"] for f in findings)
        for quiet in ("ReadDone", "Reset", "Retry"):
            self.assertNotIn(quiet, msgs)

    def test_discarded_failure(self):
        rc, findings = run_kcheck(fixture("bad_discarded_failure.cc"))
        self.assertEqual(rc, 1)
        self.assert_rule(findings, "discarded-failure", "Pipe::Flush")
        # The may-fail summary must follow the propagating wrapper.
        self.assert_rule(findings, "discarded-failure", "Disk::SubmitFirst")
        msgs = " ".join(f["message"] for f in findings)
        for quiet in ("Close", "Checked", "Forward", "Tick"):
            self.assertNotIn(quiet, msgs)

    def test_resource_leak(self):
        rc, findings = run_kcheck(fixture("bad_resource_leak.cc"))
        self.assertEqual(rc, 1)
        self.assert_rule(findings, "resource-leak-on-error-path",
                         "Fs::ReadMeta")
        # The acquires-resource summary must follow the wrapper.
        self.assert_rule(findings, "resource-leak-on-error-path",
                         "Fs::CopyOut")
        msgs = " ".join(f["message"] for f in findings)
        for quiet in ("ReadData", "FailFast", "Handoff", "Steal"):
            self.assertNotIn(quiet, msgs)

    def test_charge_context_mismatch(self):
        rc, findings = run_kcheck(fixture("bad_charge_context.cc"))
        self.assertEqual(rc, 1)
        self.assert_rule(findings, "charge-context-mismatch", "Acct::Settle")
        # Interrupt-side bucket literal on the unproven arm only.
        self.assert_rule(findings, "charge-context-mismatch",
                         "ChargeBucket::kInterrupt")
        # Process-side bucket from softclock context.
        self.assert_rule(findings, "charge-context-mismatch", "Acct::Replay")
        msgs = " ".join(f["message"] for f in findings)
        for quiet in ("Split", "Direct", "Book", "kKopInterrupt"):
            self.assertNotIn(quiet, msgs)

    def test_clean_fixture(self):
        rc, findings = run_kcheck(fixture("good_clean.cc"))
        self.assertEqual(rc, 0)
        self.assertEqual(findings, [])

    def test_multiline_heads_listed(self):
        # Regression: a function-like #define directly before a function
        # whose return type sits on its own line used to swallow that
        # function — the directive merged into the declaration head and the
        # balanced-paren scan took the macro's parameter list — so both
        # --list-functions and the findings-count summary undercounted.
        rc, findings = run_kcheck(fixture("good_multiline_heads.cc"))
        self.assertEqual(rc, 0)
        self.assertEqual(findings, [])
        proc = subprocess.run(
            [sys.executable, KCHECK, "--list-functions",
             fixture("good_multiline_heads.cc")],
            capture_output=True, text=True, cwd=REPO)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        for qname in ("AfterMacro",
                      "MultiLine::InClass",
                      "MultiLine::OutOfLine"):
            self.assertIn(qname, proc.stdout)
        # The macro itself must NOT be recorded as a function.
        self.assertNotIn("CHECK", proc.stdout)

    def test_fixture_completeness(self):
        # Every rule kcheck knows must be exercised by some seeded fixture:
        # a rule nobody can trigger is dead weight or, worse, silently broken.
        sys.path.insert(0, HERE)
        try:
            import kcheck as mod
        finally:
            sys.path.pop(0)
        produced = set()
        for name in sorted(os.listdir(TESTDATA)):
            if not name.startswith("bad_") or not name.endswith(".cc"):
                continue
            _, findings = run_kcheck(fixture(name))
            produced.update(f["rule"] for f in findings)
        missing = mod.KNOWN_RULES - produced
        self.assertFalse(
            missing,
            "rules with no fixture coverage: %s" % ", ".join(sorted(missing)))

    def test_github_output(self):
        proc = subprocess.run(
            [sys.executable, KCHECK, "--github", fixture("bad_guard.cc")],
            capture_output=True, text=True, cwd=REPO)
        self.assertEqual(proc.returncode, 1)
        lines = proc.stdout.splitlines()
        annotations = [l for l in lines if l.startswith("::error ")]
        self.assertTrue(annotations, proc.stdout)
        for a in annotations:
            self.assertRegex(
                a, r"^::error file=\S+,line=\d+,title=kcheck [\w-]+::")
        self.assertIn("guard-violation", annotations[0])
        # The summary line carries the findings count.
        self.assertRegex(lines[-1], r"^kcheck: \d+ finding\(s\)")

    def test_waiver_suppresses(self):
        # A `kcheck: allow(<rule>)` comment on the offending line silences it.
        import tempfile
        with open(fixture("bad_charge.cc")) as f:
            src = f.read()
        src = src.replace("cpu_->ChargeInterrupt(cycles);\n  }\n\n  // OK",
                          "cpu_->ChargeInterrupt(cycles);"
                          "  // kcheck: allow(undominated-charge)\n  }\n\n  // OK")
        self.assertIn("kcheck: allow", src)
        with tempfile.NamedTemporaryFile("w", suffix=".cc", delete=False) as f:
            f.write(src)
            path = f.name
        try:
            rc, findings = run_kcheck(path)
        finally:
            os.unlink(path)
        self.assertEqual(rc, 0, findings)


    def test_waiver_suppresses_kpath_rules(self):
        # Every kpath rule family — and the new lock-contract checks
        # (IKDP_REQUIRES, IKDP_ACQUIRED_AFTER) — honours
        # `kcheck: allow(<rule>)` on the offending line: waiving each
        # reported line empties the run.
        import tempfile
        for name in ("bad_errno_clobber.cc", "bad_discarded_failure.cc",
                     "bad_resource_leak.cc", "bad_charge_context.cc",
                     "bad_requires.cc", "bad_lock_order_cycle.cc"):
            with self.subTest(fixture=name):
                rc, findings = run_kcheck(fixture(name))
                self.assertEqual(rc, 1)
                with open(fixture(name)) as f:
                    lines = f.read().split("\n")
                for fd in findings:
                    lines[fd["line"] - 1] += \
                        "  // kcheck: allow(%s)" % fd["rule"]
                with tempfile.NamedTemporaryFile(
                        "w", suffix=".cc", delete=False) as f:
                    f.write("\n".join(lines))
                    path = f.name
                try:
                    rc, findings = run_kcheck(path)
                finally:
                    os.unlink(path)
                self.assertEqual(rc, 0, findings)


class SarifOutput(unittest.TestCase):
    """--sarif: a SARIF 2.1.0 document CI can upload to code scanning."""

    def _sarif(self, name):
        proc = subprocess.run(
            [sys.executable, KCHECK, "--sarif", fixture(name)],
            capture_output=True, text=True, cwd=REPO)
        return proc.returncode, json.loads(proc.stdout)

    def test_document_validates(self):
        rc, doc = self._sarif("bad_guard.cc")
        self.assertEqual(rc, 1)
        # Validate against the vendored schema subset (offline; fetching the
        # full OASIS schema would need network access).
        with open(os.path.join(HERE, "sarif-2.1.0-subset.schema.json")) as f:
            schema = json.load(f)
        try:
            import jsonschema
        except ImportError:
            jsonschema = None
        if jsonschema is not None:
            jsonschema.validate(doc, schema)
        # Structural assertions that hold with or without jsonschema.
        self.assertEqual(doc["version"], "2.1.0")
        self.assertTrue(doc["$schema"].endswith("sarif-schema-2.1.0.json"))
        self.assertEqual(len(doc["runs"]), 1)
        driver = doc["runs"][0]["tool"]["driver"]
        self.assertEqual(driver["name"], "kcheck")
        ids = [r["id"] for r in driver["rules"]]
        self.assertEqual(len(ids), len(set(ids)), "duplicate rule ids")
        results = doc["runs"][0]["results"]
        self.assertTrue(results)
        for res in results:
            self.assertEqual(ids[res["ruleIndex"]], res["ruleId"])
            self.assertEqual(res["level"], "error")
            self.assertTrue(res["message"]["text"])
            loc = res["locations"][0]["physicalLocation"]
            self.assertTrue(
                loc["artifactLocation"]["uri"].endswith("bad_guard.cc"))
            self.assertNotIn("\\", loc["artifactLocation"]["uri"])
            self.assertGreaterEqual(loc["region"]["startLine"], 1)

    def test_clean_run_has_empty_results(self):
        rc, doc = self._sarif("good_clean.cc")
        self.assertEqual(rc, 0)
        self.assertEqual(doc["runs"][0]["results"], [])
        # The rule table is still complete: stable ruleIndex across runs.
        self.assertGreater(len(doc["runs"][0]["tool"]["driver"]["rules"]), 10)


class IncrementalCache(unittest.TestCase):
    """--cache / --changed-only: identical findings cold, warm, and after
    invalidation — and a real speedup on the warm path."""

    @staticmethod
    def _run_inproc(argv):
        # In-process so the timing compares the analysis, not interpreter
        # start-up (which dwarfs the warm path from a subprocess).
        sys.path.insert(0, HERE)
        try:
            import kcheck as mod
        finally:
            sys.path.pop(0)
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = mod.main(argv)
        return rc, out.getvalue(), time.perf_counter() - t0

    def test_cache_hit_identical_and_faster(self):
        cwd = os.getcwd()
        os.chdir(REPO)
        try:
            with tempfile.TemporaryDirectory() as cachedir:
                rc1, out1, t_cold = self._run_inproc(
                    ["--json", "--cache", cachedir, "--root", "src"])
                rc2, out2, t_warm = self._run_inproc(
                    ["--json", "--cache", cachedir, "--root", "src"])
        finally:
            os.chdir(cwd)
        self.assertEqual(rc1, rc2)
        self.assertEqual(out1, out2, "cache replay changed the findings")
        self.assertGreaterEqual(
            t_cold / max(t_warm, 1e-9), 5.0,
            "cached run not >=5x faster: cold %.3fs, warm %.3fs"
            % (t_cold, t_warm))

    def test_cache_invalidation_recomputes(self):
        with tempfile.TemporaryDirectory() as tmp:
            cachedir = os.path.join(tmp, "cache")
            tgt = os.path.join(tmp, "bad_guard.cc")
            shutil.copy(fixture("bad_guard.cc"), tgt)
            rc1, f1 = run_kcheck("--cache", cachedir, tgt)
            rc2, f2 = run_kcheck("--cache", cachedir, tgt)
            self.assertEqual(rc1, 1)
            self.assertEqual((rc1, f1), (rc2, f2))
            # Edit the file: entries keyed on the old content must not
            # replay.  The prepended line shifts every finding down one.
            with open(tgt) as f:
                text = f.read()
            with open(tgt, "w") as f:
                f.write("// edited\n" + text)
            rc3, f3 = run_kcheck("--cache", cachedir, tgt)
            rc4, f4 = run_kcheck(tgt)  # uncached reference on the edited tree
            self.assertEqual((rc3, f3), (rc4, f4),
                             "cached run diverged from uncached after edit")
            self.assertNotEqual([x["line"] for x in f1],
                                [x["line"] for x in f3])

    def test_changed_only_filters_to_git_changes(self):
        with tempfile.TemporaryDirectory() as tmp:
            def git(*a):
                subprocess.run(["git", "-C", tmp,
                                "-c", "user.email=kcheck@test",
                                "-c", "user.name=kcheck"] + list(a),
                               check=True, capture_output=True)
            git("init", "-q")
            shutil.copy(fixture("bad_guard.cc"),
                        os.path.join(tmp, "committed.cc"))
            git("add", "committed.cc")
            git("commit", "-qm", "seed")
            shutil.copy(fixture("bad_charge.cc"),
                        os.path.join(tmp, "changed.cc"))  # untracked
            proc = subprocess.run(
                [sys.executable, KCHECK, "--json", "--changed-only",
                 "committed.cc", "changed.cc"],
                capture_output=True, text=True, cwd=tmp)
            self.assertEqual(proc.returncode, 1, proc.stderr)
            files = {f["file"] for f in json.loads(proc.stdout)}
            self.assertEqual(files, {"changed.cc"},
                             "committed-and-unchanged findings not filtered")
            # Without the flag, both files report.
            proc2 = subprocess.run(
                [sys.executable, KCHECK, "--json",
                 "committed.cc", "changed.cc"],
                capture_output=True, text=True, cwd=tmp)
            files2 = {f["file"] for f in json.loads(proc2.stdout)}
            self.assertEqual(files2, {"committed.cc", "changed.cc"})


class TsaBridge(unittest.TestCase):
    """Every klock fixture must ALSO fire under the second, independent
    checker: Clang -Wthread-safety through the IKDP_CLANG_TSA bridge.

    The fixtures guard their minimal stubs behind IKDP_TSA_FIXTURE_STUB;
    testdata/tsa_stub.h defines it and supplies annotated lock classes, so
    `clang++ -fsyntax-only -include tsa_stub.h <fixture>` runs the
    thread-safety analysis over the very same BAD bodies kcheck flags.
    Assertions are deliberately loose (>= 1 thread-safety warning, zero
    errors) so clang version drift in wording does not break the suite.
    Skipped when clang++ is not installed; CI always runs it.
    """

    TSA_FIXTURES = (
        "bad_unreleased_lock.cc",
        "bad_double_acquire.cc",
        "bad_lock_order_cycle.cc",
        "bad_sleep_under_spinlock.cc",
        "bad_lock_guard.cc",
        "bad_requires.cc",
    )

    @classmethod
    def setUpClass(cls):
        import shutil
        cls.clang = shutil.which("clang++")

    def _compile(self, name):
        return subprocess.run(
            [self.clang, "-fsyntax-only", "-std=c++20",
             "-Wthread-safety", "-Wthread-safety-beta",
             "-include", fixture("tsa_stub.h"), fixture(name)],
            capture_output=True, text=True, cwd=REPO)

    def test_fixtures_fire_under_clang_tsa(self):
        if not self.clang:
            self.skipTest("clang++ not on PATH")
        for name in self.TSA_FIXTURES:
            with self.subTest(fixture=name):
                proc = self._compile(name)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertNotIn("error:", proc.stderr, proc.stderr)
                self.assertIn(
                    "-Wthread-safety", proc.stderr,
                    "expected >= 1 thread-safety warning from %s, got:\n%s"
                    % (name, proc.stderr or "(no diagnostics)"))


class TreeIsClean(unittest.TestCase):
    """The real source tree must satisfy every rule."""

    def test_src_tree(self):
        rc, findings = run_kcheck("--root", "src")
        self.assertEqual(rc, 0,
                         "kcheck found violations in src/:\n%s"
                         % "\n".join("%s:%s [%s] %s" % (f["file"], f["line"],
                                                        f["rule"], f["message"])
                                     for f in findings))

    def test_annotations_parsed(self):
        # Guard against the silent-parser failure mode: a clean run must be
        # clean because the contracts hold, not because nothing was parsed.
        proc = subprocess.run(
            [sys.executable, KCHECK, "--root", "src", "--list-functions"],
            capture_output=True, text=True, cwd=REPO)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        annotated = [l for l in lines if " process " in l or " interrupt " in l
                     or " softclock " in l or " any " in l]
        self.assertGreater(len(lines), 300, "function database too small")
        self.assertGreater(len(annotated), 80,
                           "too few annotated functions parsed — frontend "
                           "regression?")
        # Spot-check load-bearing contract entries.
        joined = "\n".join(annotated)
        for expect in ("CpuSystem::Sleep", "CpuSystem::ChargeInterrupt",
                       "CalloutTable::RunTick", "SpliceRing::Reap",
                       "BufferCache::Brelse"):
            self.assertIn(expect, joined)


def case_names(suite):
    """Class.test_name of every case in `suite`, in load order."""
    for t in suite:
        if isinstance(t, unittest.TestSuite):
            yield from case_names(t)
        else:
            yield t.id().split(".", 1)[1]


if __name__ == "__main__":
    if sys.argv[1:] == ["--list"]:
        # One line per case: ctest registers each as its own test.
        suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
        print("\n".join(case_names(suite)))
        sys.exit(0)
    unittest.main()
