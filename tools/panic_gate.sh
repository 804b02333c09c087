#!/usr/bin/env bash
# Fails when non-test code in the hardened crates (baselines, core, cli, dct,
# nn, server) calls .unwrap() or .expect(...). Recoverable failures there must
# flow through the BaselineError / CoreError / CliError / DctError / NnError /
# ApiError taxonomies; genuine invariants use an explicit match + panic!/unreachable!
# with a message, which this gate deliberately does not count.
#
# "Non-test" means everything above the first `#[cfg(test)]` in each file
# (the repo convention keeps unit tests in a trailing module). Commented
# lines are ignored.
set -euo pipefail

cd "$(dirname "$0")/.."

status=0
for file in $(find crates/baselines/src crates/core/src crates/cli/src crates/dct/src crates/nn/src crates/server/src -name '*.rs' | sort); do
  hits=$(awk '
    /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /\.unwrap\(\)|\.expect\(/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
  ' "$file")
  if [ -n "$hits" ]; then
    echo "$hits"
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo
  echo "panic gate: new .unwrap()/.expect( in non-test code under crates/{baselines,core,cli,dct,nn,server}/src." >&2
  echo "Return a BaselineError/CoreError/CliError/DctError/NnError/ApiError instead, or use an explicit match + panic! for" >&2
  echo "a true invariant (with a message saying why it cannot happen)." >&2
  exit 1
fi
echo "panic gate: clean"
