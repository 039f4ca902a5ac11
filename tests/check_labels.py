#!/usr/bin/env python3
"""Fails when a test run by a labelled suite's executable lacks its labels.

tests/CMakeLists.txt labels each suite's tests through the name list that
gtest discovery fills in, and writes every labelled suite with its labels
to <build>/tests/suite_labels.txt. Discovery leaves any test whose name
holds `[` or `]` out of that list, so such a test runs in tier-1 but
silently drops out of the presets that select by label (asan, tsan).
`ctest --show-only=json-v1` lists each test's command and labels; a test
whose command runs a labelled suite must carry all of that suite's labels.

Usage: python3 tests/check_labels.py [build-dir]   (default: build)
"""

import json
import os
import subprocess
import sys


def main():
    build = sys.argv[1] if len(sys.argv) > 1 else "build"
    suite_labels = {}
    with open(os.path.join(build, "tests", "suite_labels.txt")) as lines:
        for line in lines:
            suite, labels = line.rstrip("\n").split("\t")
            suite_labels[suite] = set(labels.split(";"))
    listing = json.loads(
        subprocess.run(
            ["ctest", "--test-dir", build, "--show-only=json-v1"],
            check=True,
            capture_output=True,
            text=True,
        ).stdout
    )
    checked = 0
    unlabelled = []
    for test in listing["tests"]:
        command = test.get("command") or [""]
        suite = os.path.basename(command[0])
        want = suite_labels.get(suite)
        if want is None:
            continue
        checked += 1
        have = set()
        for prop in test.get("properties", []):
            if prop["name"] == "LABELS":
                have = set(prop["value"])
        if not want <= have:
            unlabelled.append(
                f"{test['name']} ({suite}): labels {sorted(have)}, "
                f"want {sorted(want)}"
            )
    if checked == 0:
        print("no test runs a labelled suite: is the build tree configured?")
        return 1
    for line in unlabelled:
        print(line)
    print(
        f"{checked} tests of {len(suite_labels)} labelled suites, "
        f"{len(unlabelled)} missing a label"
    )
    return 1 if unlabelled else 0


if __name__ == "__main__":
    sys.exit(main())
