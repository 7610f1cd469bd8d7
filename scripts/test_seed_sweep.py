"""Tests of seed_sweep's scorecard parser.

Run with `python3 -m unittest discover -s scripts`.
"""

import os
import unittest

from seed_sweep import parse_scorecard

REPRODUCTION = os.path.join(os.path.dirname(__file__), "..", "REPRODUCTION_OUTPUT.txt")

BLOCK = """\
Scorecard — paper vs measured
──────────────────────────────────────────────────────────
Source   Quantity                              Paper      Measured   Band        OK
------------------------------------------------------------------------------------
§3.1     unique prefixes on DROP               712        712        ±0          ✓
Fig 2    withdrawn ≤30d unallocated            54.8%      38.1%      ±14.0%      ✗
Fig 5    signed-unrouted space (/8s)           6.70 /8s   6.69 /8s   ±0.50 /8s   ✓
{footer}
"""


class ParseScorecard(unittest.TestCase):
    def test_reproduction_output_reads_39_rows_all_in_band(self):
        with open(REPRODUCTION, encoding="utf-8") as f:
            rows, in_band = parse_scorecard(f.read())
        self.assertEqual(len(rows), 39)
        self.assertEqual(in_band, 39)
        self.assertTrue(all(ok for _, _, ok in rows))
        self.assertEqual(rows[0], ("§3.1 unique prefixes on DROP", "712", True))
        self.assertEqual(len({name for name, _, _ in rows}), 39)

    def test_a_cross_row_counts_out_of_band(self):
        rows, in_band = parse_scorecard(BLOCK.format(footer="2 of 3 targets in band"))
        self.assertEqual(in_band, 2)
        self.assertEqual(rows[1], ("Fig 2 withdrawn ≤30d unallocated", "38.1%", False))
        # A cell may hold a single space.
        self.assertEqual(rows[2][1], "6.69 /8s")

    def test_a_footer_that_disagrees_with_the_rows_is_refused(self):
        with self.assertRaises(ValueError):
            parse_scorecard(BLOCK.format(footer="3 of 3 targets in band"))

    def test_output_without_a_scorecard_is_refused(self):
        with self.assertRaises(ValueError):
            parse_scorecard("Figure 5\n39 of 39 targets in band\n")


if __name__ == "__main__":
    unittest.main()
