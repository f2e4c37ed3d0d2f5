#!/bin/sh
# The command-line checks of CI: every subcommand and each detector family
# through a command prefix, and a large perm file read with the back half in a
# helper process against the same bytes on stdin.  Exits non-zero at the
# first command that fails or output that differs.
#
#   sh tests/ci_checks.sh "python -m permstream.cli"   # from a checkout
#   sh tests/ci_checks.sh permstream                   # the installed script
#
# The prefix runs wherever the text below says "permstream"; the lines that
# say "python -m permstream.cli" run the module entry itself.  Either way the
# package is imported from this checkout's src/.  The function below runs the
# prefix with `command`, so a prefix that is itself `permstream` finds the
# script on PATH rather than the function.
set -eu
cmd=$1
permstream() { command $cmd "$@"; }
src=$(cd "$(dirname "$0")/../src" && pwd)
PYTHONPATH=$src${PYTHONPATH:+:$PYTHONPATH}
export PYTHONPATH
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

permstream detect --pattern 132 --values 2,5,1,4,3 --n 5 --json
permstream detect --pattern 12 --values 1000000000000000,1 --n 1000000000000000 --mode seq
# the dispatch warning is one line at a fixed place, without a path or source line
permstream detect --pattern 312 --values 3,1,2 --n 3 --mode seq 2> "$tmp/warning.err"
echo "permstream:0: UserWarning: no sublinear sequence-mode detector for 312; falling back to the full-storage baseline" > "$tmp/warning.want"
cmp "$tmp/warning.err" "$tmp/warning.want"
# and so is extend's warning on a seq stream
printf 'n=5 mode=seq\n3 1 5\n' > "$tmp/seq.txt"
permstream gen --construction extend --input "$tmp/seq.txt" > /dev/null 2> "$tmp/extend.err"
echo "permstream:0: UserWarning: extending a sequence-mode stream: the transform is defined, but the containment equivalence is stated for permutations" > "$tmp/extend.want"
cmp "$tmp/extend.err" "$tmp/extend.want"
# a warning that -W error makes an error is one line too, with exit code 2
code=0
python -W error -m permstream.cli detect --pattern 312 --values 3,1,2 --n 3 --mode seq \
  > "$tmp/werror.out" 2> "$tmp/werror.err" || code=$?
test "$code" = 2
test ! -s "$tmp/werror.out"
echo "error: no sublinear sequence-mode detector for 312; falling back to the full-storage baseline" > "$tmp/werror.want"
cmp "$tmp/werror.err" "$tmp/werror.want"
# each family's module loads when its detector is first built: reach every such import
permstream detect --pattern 321 --values 3,1,2 --n 3 --detector monotone
permstream detect --pattern 312 --values 3,1,2,4 --n 4 --detector 312
permstream detect --pattern 213 --values 2,1,3 --n 3 --detector 231
permstream detect --pattern 2413 --values 2,4,1,3 --n 4 --detector baseline
# a pattern longer than n: the trivial rejector
permstream detect --pattern 4231 --values 1,2,3 --n 3
permstream bench --pattern 213 --sizes 64
# a bench report holds only deterministic facts: two runs differ in the wall time alone
for run in 1 2; do
  permstream bench --pattern 231 --sizes 4096,16384 --json > "$tmp/bench.json"
  sed 's/"wall_time_s": [-+.0-9e]*//' "$tmp/bench.json" > "$tmp/bench$run.json"
done
cmp "$tmp/bench1.json" "$tmp/bench2.json"
permstream fuzz --construction 4312 --nsets 3 --exhaustive --jobs 2
permstream fuzz --pattern 213 --n 7 --exhaustive
permstream fuzz --pattern 231 --n 8 --exhaustive --jobs 2
# every 312 witness, future-marked ones included, on all 8! permutations
permstream fuzz --pattern 312 --n 8 --exhaustive --jobs 2
# strips of 3 and of 4 values: the detector's verdicts against the oracle's
# (only verdicts are compared, so the in-strip scan has its own unit test)
permstream fuzz --pattern 231 --n 9 --trials 3000 --seed 1
permstream fuzz --pattern 213 --n 16 --trials 3000 --seed 2
# the k >= 4 baseline against the oracle on all 8! permutations
permstream fuzz --pattern 4231 --n 8 --exhaustive --jobs 2
# the baseline's pruning of dominated candidates, at prefix slots 0 and 1
permstream fuzz --pattern 15234 --n 8 --exhaustive --jobs 2
# a start slot with later slots on both sides: only the two-sided pruning
permstream fuzz --construction 3142 --nsets 3 --exhaustive
# the oracle skips a slot that no later value can fill: a last slot with
# one bound (front4:4231) and one with two (2143)
permstream fuzz --construction front4:4231 --nsets 5 --exhaustive
permstream fuzz --construction 2143 --nsets 5 --exhaustive
# the baseline on sparse seq-mode values, which it ranks first, then on values
# near 10^12 with n = 10^15: its presence maps are sized from the number of
# buffered values, never from the values or from n
permstream fuzz --construction seq312 --nsets 5 --exhaustive
permstream detect --pattern 2413 --values 2000000000000,4000000000000,1000000000000,3000000000000 --n 1000000000000000 --mode seq --check
# the baseline's search for a late witness: the layered 312-avoider on 1000
# values, sparse, with its last two values swapped, so its first 312 starts
# in the last layer; --check fails unless the oracle agrees and the witness holds
late312=$(python -c 'from permstream.streaming.window312 import Detector312
v = Detector312(1000).adversary()
v[-2:] = v[:-3:-1]
print(",".join(str(3 * x) for x in v))')
permstream detect --pattern 312 --values "$late312" --n 3000 --mode seq --check
# a pattern of 1500 values, 2 1 3 4 ... 1500, on 2 1 3 4 ... 3000: neither
# the baseline's search nor the oracle's takes a Python frame per slot
ints='import sys; print(",".join(map(str, [2, 1, *range(3, int(sys.argv[1]) + 1)])))'
permstream detect --pattern "$(python -c "$ints" 1500)" --values "$(python -c "$ints" 3000)" --n 3000 \
  --check > "$tmp/long.out" 2> "$tmp/long.err"
test "$(tail -n 1 "$tmp/long.out")" = "oracle cross-check: agree"
# its dispatch warning names the pattern by its first values and its length,
# on one short line
test "$(wc -l < "$tmp/long.err")" -eq 1
test "$(wc -c < "$tmp/long.err")" -lt 200
grep -q "1500 values" "$tmp/long.err"
# each subcommand imports what it needs when it runs: reach every such import
permstream detect --pattern 312 --values 3,1,2 --n 3 --check
permstream oracle --pattern 312 --values 3,1,2,4 --n 4 --count --split 2
permstream gen --construction 4312 --nsets 3
permstream fuzz --pattern 132 --n 5 --exhaustive --jobs 2
# the CLI's only path to extend_stream: extend a generated stream file
permstream gen --construction 4312 --nsets 3 --out "$tmp/4312.txt"
permstream gen --construction extend --input "$tmp/4312.txt"
# past the first 64 KiB chunk, a generated file's chunks take the one-call
# JSON parse and a loose copy's the word-by-word path: the two reports must
# match apart from the wall time (the nsets=3 file fits in one chunk)
permstream gen --construction 4312 --nsets 20000 --random-sets --seed 3 --out "$tmp/4312-large.txt"
sed 's/ /  /g; s/$/\r/' "$tmp/4312-large.txt" > "$tmp/4312-loose.txt"
for f in 4312-large 4312-loose; do
  permstream detect --pattern 4312 --input "$tmp/$f.txt" --json \
    | python -c 'import json, sys; r = json.load(sys.stdin); r.pop("wall_time_s"); print(json.dumps(r, sort_keys=True))' \
    > "$tmp/$f.json"
done
cmp "$tmp/4312-large.json" "$tmp/4312-loose.json"
# monotone-lb without --sigma: the prefix-only path
permstream gen --construction monotone-lb --k 5 --n 12 --rho 1,5,7
permstream gen --construction 3142 --nsets 3 --random-sets --seed 4
# the module entry the benchmark runs: cli.py as __main__, tools.py importing it
python -m permstream.cli oracle --pattern 312 --values 3,1,2,4 --n 4 --count --split 2
python -m permstream.cli gen --construction 4312 --nsets 3
python -m permstream.cli fuzz --pattern 132 --n 5 --exhaustive --jobs 2

# detect with the back half in a helper process
cd "$tmp"
# a 2 MiB perm file is read in two processes, the same bytes on stdin
# in one; -W makes a fork with threads running (3.12+) fail the step
python - <<'PY'
import random
n = 320_000
values = list(range(1, n + 1))
random.Random(1).shuffle(values)
def write(path, values):
    lines = (" ".join(map(str, values[i : i + 20])) for i in range(0, n, 20))
    with open(path, "w") as fh:
        fh.write(f"n={n} mode=perm\n" + "\n".join(lines) + "\n")
write("big.txt", values)
values[n * 3 // 4] = values[0]  # a front value repeated in the back half
write("big-dup.txt", values)
data = open("big.txt", "rb").read()
assert len(data) >= 2 << 20
at = data.index(b"\n", len(data) * 3 // 4) + 1  # a line start in the back half
open("big-utf8.txt", "wb").write(data[:at] + b"\xff" + data[at:])
at = data.index(b"\n", len(data) // 4) + 1  # a line start in the front half
open("big-utf8-front.txt", "wb").write(data[:at] + b"\xff" + data[at:])
open("big-crlf.txt", "wb").write(data.replace(b"\n", b"\r\n"))
PY
detect() { python -W error::DeprecationWarning -m permstream.cli detect --pattern 312 --json "$@"; }
drop_wall_time='import json, sys; r = json.load(sys.stdin); r.pop("wall_time_s"); print(json.dumps(r, sort_keys=True))'
for f in big big-crlf; do
  detect --input $f.txt | python -c "$drop_wall_time" > split.json
  detect --input - < $f.txt | python -c "$drop_wall_time" > one.json
  cmp split.json one.json
done
# a duplicate, then a byte that is not UTF-8, in the back half, and such
# a byte in the front half: the same exit code and message from the
# file and from stdin
for f in big-dup big-utf8 big-utf8-front; do
  code=0; detect --input $f.txt 2> split.err || code=$?
  test "$code" = 2
  code=0; detect --input - < $f.txt 2> one.err || code=$?
  test "$code" = 2
  cmp split.err one.err
done
