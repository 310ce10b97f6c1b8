#!/bin/sh
# Counts the non-test Rust of the workspace: every `.rs` file under
# `crates/*/src` and `src/`, each read up to its first `#[cfg(test)]` line.
# Prints the total line count and the code lines (neither blank nor a `//`
# comment). Run from anywhere: `scripts/loc.sh`. Report only; always exits 0.
cd "$(dirname "$0")/.." || exit 0
find crates/*/src src -name '*.rs' | sort | xargs awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    { total++ }
    /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { code++ }
    END { printf "non-test Rust lines: %d total, %d code\n", total, code }
'
