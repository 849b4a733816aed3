"""The scripts under ``tools/`` run at a tiny size."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"(\w+) (bare|library|other): [\d.]+ us/iter,"
                  r"(?: [\d.]+x bare \(rounds [\d.]+-[\d.]+\),)?"
                  r" (\d+) numpy calls/iter, (\d+) mask copies/iter")


def test_poisson_bare_loop_matches_library_and_counts_its_calls():
    # the script asserts that the library's F equals the bare loop's bit for
    # bit; a second checkout (this one again) runs through --other
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "poisson_bare_loop.py"),
         "--iters", "40", "--rounds", "2", "--other", str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, check=True).stdout
    rows = [LINE.fullmatch(line).groups() for line in out.splitlines()]
    counts = {(profile, side): (int(calls), int(masks))
              for profile, side, calls, masks in rows}
    assert len(rows) == len(counts) == 6
    for profile in ("pdcae0", "spdcae0"):
        # the library makes the bare loop's calls, and on this instance (no
        # zero count) it copies no masked vector
        bare = counts[(profile, "bare")]
        assert counts[(profile, "library")] == counts[(profile, "other")] == bare
        assert bare[1] == 0
    assert counts[("pdcae0", "library")][0] <= 41
