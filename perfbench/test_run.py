"""Tests for run.py's result parsing.  Run: python3 -m unittest test_run (in perfbench/)."""

import json
import unittest

from run import parse_result

SPEC = {
    "end_to_end": [
        {"name": "scp_kbs", "unit": "sim_KB/s", "better": "higher", "bound": 0.05},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [{"name": "buf.hits", "unit": "count", "better": "higher"}],
}


def line(**overrides):
    result = {
        "correct": True,
        "attempted": 40,
        "failed": 0,
        "metrics": {
            "scp_kbs": {"value": 3845.4669621836674, "unit": "sim_KB/s"},
            "setup_s": {"value": 0.2306, "unit": "s"},
        },
    }
    result.update(overrides)
    return json.dumps(result)


class ParseResultTest(unittest.TestCase):
    def test_last_line_after_report_is_parsed(self):
        text = "report line\n  scp_kbs 3845.5\n" + line() + "\n"
        result = parse_result(text, SPEC, trace=False)
        self.assertEqual(result["attempted"], 40)
        self.assertEqual(result["metrics"]["scp_kbs"]["value"], 3845.4669621836674)

    def test_per_layer_names_checked_in_trace_mode(self):
        text = line(metrics={"buf.hits": {"value": 16210, "unit": "count"}})
        self.assertIn("buf.hits", parse_result(text, SPEC, trace=True)["metrics"])
        with self.assertRaisesRegex(ValueError, "not declared"):
            parse_result(text, SPEC, trace=False)

    def test_rejects_malformed_results(self):
        bad = {
            "no output": "",
            "not JSON": "report only\n",
            "result keys": json.dumps({"correct": True, "attempted": 1, "failed": 0,
                                       "metrics": {}, "extra": 1}),
            "correct is not": line(correct="yes"),
            "attempted is not": line(attempted=1.5),
            "failed is not": line(failed=-1),
            "nothing attempted": line(attempted=0),
            "non-empty": line(metrics={}),
            "not declared": line(metrics={"p99_ms": {"value": 1.0, "unit": "sim_ms"}}),
            "unit": line(metrics={"setup_s": {"value": 1.0, "unit": "ms"}}),
            "finite": line(metrics={"setup_s": {"value": "fast", "unit": "s"}}),
            "value, unit": line(metrics={"setup_s": {"value": 1.0}}),
        }
        for what, text in bad.items():
            with self.subTest(what):
                with self.assertRaisesRegex(ValueError, what):
                    parse_result(text, SPEC, trace=False)

    def test_every_declared_metric_is_required(self):
        text = line(metrics={"scp_kbs": {"value": 3845.5, "unit": "sim_KB/s"}})
        with self.assertRaisesRegex(ValueError, "missing: setup_s"):
            parse_result(text, SPEC, trace=False)

    def test_non_finite_value_is_rejected(self):
        text = line().replace("0.2306", "NaN")
        with self.assertRaisesRegex(ValueError, "finite"):
            parse_result(text, SPEC, trace=False)

    def test_incorrect_run_still_parses(self):
        result = parse_result(line(correct=False, failed=2), SPEC, trace=False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2)


if __name__ == "__main__":
    unittest.main()
