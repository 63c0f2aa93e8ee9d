#!/usr/bin/env bash
# Run every check below twice, each run in a fresh directory of its own, and
# require the two runs to leave byte-identical files: the reports, the inputs
# a check writes for itself, and standard output, kept as stdout.txt.
#
# One row per check: a label, a time limit in seconds for the whole command
# of one run (0 for none), and the command, run by bash in the run's
# directory.  Paths in a command are relative; a report names an input file
# by the SHA-256 of its bytes, not by its path, and one row checks that by
# reading the same input from two directories.
#
# Usage: .github/rerun-identical.sh [work directory]   (needs `equihom` on PATH)
set -uo pipefail

work=${1:-$(mktemp -d)}
mkdir -p "$work"

checks=$(cat <<'ROWS'
verify --suite all, report and stdout | 0 | equihom verify --suite all --out verify.json
verify --suite bredon-large | 20 | equihom verify --suite bredon-large --out large.json
bredon n = 3, L = 8 quotient check | 0 | equihom bredon --n 3 --L 8 --d 2 --quotient-check --out quotient.json
bredon n = 4, L = 4 quotient check | 10 | equihom bredon --n 4 --L 4 --d 2 --quotient-check --out quotient44.json
bredon n = 4, L = 8 quotient check | 10 | equihom bredon --n 4 --L 8 --d 2 --quotient-check --out quotient48.json
bredon n = 6, L = 4 | 10 | equihom bredon --n 6 --L 4 --d 3 --out bredon64.json
bredon n = 6, L = 8 quotient check | 10 | equihom bredon --n 6 --L 8 --d 3 --quotient-check --out quotient68.json
bredon n = 8, L = 4 | 10 | equihom bredon --n 8 --L 4 --d 4 --out bredon84.json
bredon n = 5, L = 4, group-ring coefficients | 10 | equihom bredon --n 5 --L 4 --d 3 --coefficients ZZ2 --out bredon54-zz2.json
bredon n = 5, L = 4, trivial coefficients | 10 | equihom bredon --n 5 --L 4 --d 3 --coefficients Zplus --out bredon54-zplus.json
hom-complex complete:4 | 0 | equihom hom-complex --graph complete:4 --out hom.json
hom-complex cycle:5 | 0 | equihom hom-complex --graph cycle:5 --out hom.json
hom-complex complete:7 | 10 | equihom hom-complex --graph complete:7 --out hom-k7.json
survey ell = 3 up to arity 3 | 0 | equihom experiment --ell 3 --n-max 3 --chain-samples 4000 --seed 3 --out survey.json
survey ell = 3 up to arity 4 | 0 | equihom experiment --ell 3 --n-max 4 --chain-samples 500 --seed 3 --out survey4.json
sampled survey ell = 5 | 0 | equihom experiment --ell 5 --n-max 2 --chain-samples 500 --seed 3 --out survey5.json
survey ell = 5 up to arity 3 | 0 | equihom experiment --ell 5 --n-max 3 --seed 3 --out survey5n3.json
survey ell = 7 up to arity 3 | 10 | equihom experiment --ell 7 --n-max 3 --seed 3 --out survey7n3.json
survey ell = 5 up to arity 4 | 10 | equihom experiment --ell 5 --n-max 4 --seed 3 --out survey5n4.json
survey ell = 3 up to arity 5 | 10 | equihom experiment --ell 3 --n-max 5 --chain-samples 500 --seed 3 --out survey3n5.json
survey ell = 101 | 10 | equihom experiment --ell 101 --n-max 1 --chain-samples 10 --out survey101.json
phi on the binary polymorphisms | 0 | equihom enumerate --ell 3 --arity 2 --out binary.jsonl && equihom phi --in binary.jsonl --out phi.jsonl
phi at arity 4 | 0 | equihom enumerate --ell 3 --arity 4 --limit 20 --out arity4.jsonl && equihom phi --in arity4.jsonl --out phi4.jsonl
phi at arity 5 | 0 | equihom enumerate --ell 3 --arity 5 --limit 20 --out arity5.jsonl && equihom phi --in arity5.jsonl --out phi5.jsonl
phi at ell = 5 | 0 | equihom enumerate --ell 5 --arity 2 --limit 500 --out ell5.jsonl && equihom phi --in ell5.jsonl --out phi-ell5.jsonl
phi at ell = 5, arity 3 | 0 | equihom enumerate --ell 5 --arity 3 --limit 200 --out ell5-arity3.jsonl && equihom phi --in ell5-arity3.jsonl --out phi-ell5-arity3.jsonl
degree and swap-stats n = 1 | 0 | python -c "import json, sys; from itertools import product; L, n = 8, int(sys.argv[1]); bits = [int(v[0] < L // 2) for v in product(range(L), repeat=n)]; json.dump({'L': L, 'n': n, 'colours': bits}, open(sys.argv[2], 'w'))" 1 colouring.json && equihom degree --colouring colouring.json --out degree.json && equihom swap-stats --colouring colouring.json --i 1 --out swap.json
degree and swap-stats n = 3 | 0 | python -c "import json, sys; from itertools import product; L, n = 8, int(sys.argv[1]); bits = [int(v[0] < L // 2) for v in product(range(L), repeat=n)]; json.dump({'L': L, 'n': n, 'colours': bits}, open(sys.argv[2], 'w'))" 3 colouring.json && equihom degree --colouring colouring.json --out degree.json && equihom swap-stats --colouring colouring.json --i 1 --out swap.json
degree n = 6, L = 8 | 10 | python -c "import json, sys; from itertools import product; L, n = 8, int(sys.argv[1]); bits = [int(v[0] < L // 2) for v in product(range(L), repeat=n)]; json.dump({'L': L, 'n': n, 'colours': bits}, open(sys.argv[2], 'w'))" 6 colouring.json && equihom degree --colouring colouring.json --out degree.json
degree n = 7, L = 8 | 10 | python -c "import json, sys; L, n = 8, int(sys.argv[1]); half = L // 2 * L ** (n - 1); json.dump({'L': L, 'n': n, 'colours': [1] * half + [0] * half}, open(sys.argv[2], 'w'))" 7 colouring.json && equihom degree --colouring colouring.json --out degree.json
zeta0 | 0 | equihom zeta0 --n 7 --h 2 --L 8 --out zeta0.json
enumerate | 0 | equihom enumerate --ell 3 --arity 2 --out enumerate.jsonl
enumerate ell = 3, arity 3 | 20 | equihom enumerate --ell 3 --arity 3 --out ternary.jsonl
search-t --out | 0 | equihom search-t --out search-t.json
phi and degree on one input from two directories | 0 | mkdir -p in a/b && equihom enumerate --ell 3 --arity 2 --out in/binary.jsonl && python -c "import json, sys; from itertools import product; L, n = 8, 3; bits = [int(v[0] < L // 2) for v in product(range(L), repeat=n)]; json.dump({'L': L, 'n': n, 'colours': bits}, open(sys.argv[1], 'w'))" in/colouring.json && (cd a && equihom phi --in ../in/binary.jsonl --out phi.jsonl && equihom degree --colouring ../in/colouring.json --out degree.json) && (cd a/b && equihom phi --in ../../in/binary.jsonl --out phi.jsonl && equihom degree --colouring ../../in/colouring.json --out degree.json) && cmp a/phi.jsonl a/b/phi.jsonl && cmp a/degree.json a/b/degree.json
ROWS
)

failed=0
row=0
while IFS='|' read -r label limit command; do
    label=$(echo "$label" | xargs)
    limit=$(echo "$limit" | xargs)
    row=$((row + 1))
    dir="$work/$row"
    start=$SECONDS
    ok=1
    for run in 1 2; do
        rm -rf "$dir/run$run"
        mkdir -p "$dir/run$run"
        if ! (cd "$dir/run$run" && timeout "$limit" bash -c "$command" > stdout.txt < /dev/null); then
            echo "FAIL  $label: run $run did not finish cleanly within ${limit}s (0: no limit)"
            ok=0
            break
        fi
    done
    if [ "$ok" = 1 ] && ! diff -rq "$dir/run1" "$dir/run2"; then
        echo "FAIL  $label: the two runs differ"
        ok=0
    fi
    if [ "$ok" = 1 ]; then
        echo "ok    $label ($((SECONDS - start)) s)"
    else
        failed=$((failed + 1))
    fi
done <<< "$checks"

echo "$row checks, $failed failed"
[ "$failed" = 0 ]
