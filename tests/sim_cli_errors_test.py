#!/usr/bin/env python3
"""sim_cli's error path: a refused setting prints one plain `error:` line
on stderr (no source location, no C++ condition) and exits with status 2,
before any simulation runs.

    python3 tests/sim_cli_errors_test.py path/to/sim_cli
"""
import subprocess
import sys
import unittest

SIM_CLI = None

# Each entry is one refused invocation of sim_cli.
REFUSED = [
    # Retry delays are added to the current cycle; 2^64 - 1 would wrap the
    # wake cycle into the past and wake the packet at once.
    ["--retry-limit", "2", "--retry-budget", "1",
     "--retransmit-timeout", "18446744073709551615"],
    ["--retry-limit", "2", "--retry-budget", "1",
     "--retransmit-timeout", "4294967296"],
    ["--retry-limit", "2", "--retry-backoff", "18446744073709551615"],
    ["--retry-limit", "2", "--retry-backoff", "4294967296"],
    # GC(6,2) has 64 nodes and traffic needs two live ones. 64 faults
    # leave none; 65 are more than the cube has, which once spun forever
    # in the fault draw, out of reach of SIGTERM.
    ["--faults", "64"],
    ["--faults", "65"],
    ["--faults", "18446744073709551615"],
]


class SimCliErrorsTest(unittest.TestCase):
    def test_refused_settings_print_one_error_line_and_exit_2(self):
        for flags in REFUSED:
            with self.subTest(flags=" ".join(flags)):
                out = subprocess.run([SIM_CLI, "--n", "6"] + flags,
                                     capture_output=True, text=True,
                                     timeout=60)
                self.assertEqual(out.returncode, 2, out.stderr)
                lines = out.stderr.splitlines()
                self.assertEqual(len(lines), 1, out.stderr)
                self.assertTrue(lines[0].startswith("error: "), out.stderr)
                # The line is for the person who typed the flag: the
                # library's location-tagged requirement text stays out.
                for internal in (".cpp:", ".hpp:", "requirement failed"):
                    self.assertNotIn(internal, lines[0])
                self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    SIM_CLI = sys.argv.pop(1)
    unittest.main()
