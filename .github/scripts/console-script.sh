#!/usr/bin/env bash
# Runs the installed `peakwave` console script end to end: writes one report
# per command into OUTDIR, checks every header is standard JSON, checks the
# usage errors that must exit 2 and the numerical errors that must exit 3,
# checks that an odd-bump run, which steps the full line, conserves its
# charge to 1e-10 relative and an even run at a stable point its charge to
# 1e-10 and its energy to 1e-5, checks that an --out naming a directory
# or ends in a separator exits 4 and leaves no temporary file, that an --out
# in a missing directory exits 4 and names --out, that a FIFO --out is
# written through and stays a FIFO, that a report under umask 022 has mode
# 644, that classify where L1's gap and the slope index both fail exits 3
# naming the gap, that classify at Z = -0.5 is unstable in full and stable in the even sector with
# both classifiers agreeing, checks that each spectrum lists only
# eigenvalues below its essential edge and prints as its kernel residual the
# distance from 0 to the listed values nearest it (null for the bare defect),
# that the full and even sectors print the same lowest eigenvalue at
# omega = -1e-12 and that a full-sector n_points is --n, and checks that
# importing the CLI loads no scipy.  Set PEAKWAVE to another
# launcher (say "python -m peakwave.cli") to run it without installing the
# console script.
#
#   .github/scripts/console-script.sh OUTDIR
set -euo pipefail
out=${1:?usage: console-script.sh OUTDIR}
read -r -a peakwave <<< "${PEAKWAVE:-peakwave}"

"${peakwave[@]}" profile --l1 1 --l2 1 --omega -2 --z 1 --xmax 10 --n 21 --out "$out/profile.csv"
"${peakwave[@]}" classify --l1 1 --l2 1 --omega -2 --z 1 --format json --out "$out/classify.json"
"${peakwave[@]}" simulate --l1 1 --l2 1 --omega -2 --z 1 --n 1201 --horizon 0.5 --perturbation even --amplitude 1e-2 --format json --out "$out/simulate.json"
"${peakwave[@]}" simulate --l1 1 --l2 1 --omega -2 --z -0.5 --n 1201 --horizon 0.5 --perturbation odd --amplitude 1e-2 --format json --out "$out/simulate-odd.json"
"${peakwave[@]}" spectrum --l1 1 --l2 1 --omega -2 --z -1 --kind L1 --sector full --n 2001 --out "$out/spectrum-full.csv"
"${peakwave[@]}" spectrum --l1 1 --l2 1 --omega -2 --z -1 --kind L1 --sector even --n 2001 --out "$out/spectrum-even.csv"
"${peakwave[@]}" spectrum --l1 1 --l2 1 --omega -2 --z -1 --kind L2 --sector even --n 2001 --out "$out/spectrum-l2-even.csv"
"${peakwave[@]}" spectrum --l1 1 --l2 1 --omega -2 --z -1 --kind free --n 1201 --format json --out "$out/spectrum-free.json"
test -s "$out/profile.csv" && test -s "$out/classify.json" && test -s "$out/simulate.json"
test -s "$out/simulate-odd.json"
test -s "$out/spectrum-full.csv" && test -s "$out/spectrum-even.csv" && test -s "$out/spectrum-l2-even.csv"
test -s "$out/spectrum-free.json"
python - "$out"/classify.json "$out"/simulate.json "$out"/simulate-odd.json "$out"/spectrum-free.json \
  "$out"/profile.csv "$out"/spectrum-full.csv "$out"/spectrum-even.csv "$out"/spectrum-l2-even.csv <<'PY'
import json, sys
def reject(constant):
    raise ValueError(f"{constant} is not standard JSON")
for path in sys.argv[1:]:
    with open(path) as handle:
        text = handle.read() if path.endswith(".json") else handle.readline()[2:]
    json.loads(text, parse_constant=reject)
PY

# The odd bump starts with both parities, so it runs on the full line; the
# Crank-Nicolson step is unitary and the phase keeps each modulus.
python - "$out"/simulate-odd.json <<'PY'
import json, sys
charges = [float(row[2]) for row in json.load(open(sys.argv[1]))["rows"]]
drift = max(abs(q - charges[0]) for q in charges) / charges[0]
if len(charges) < 2 or not drift < 1e-10:
    sys.exit(f"{sys.argv[1]} has a charge drift of {drift} over {len(charges)} rows, not below 1e-10")
PY

# The even bump at the stable point runs on the x >= 0 half, and each row
# reads the |u|^2 of the rotation that ends its step: the charge still holds
# to 1e-10 and the energy to 1e-5, relative, over every row.
python - "$out"/simulate.json <<'PY'
import json, sys
rows = json.load(open(sys.argv[1]))["rows"]
energies, charges = [float(row[1]) for row in rows], [float(row[2]) for row in rows]
charge = max(abs(q - charges[0]) for q in charges) / charges[0]
energy = max(abs(e - energies[0]) for e in energies) / abs(energies[0])
if len(rows) < 2 or not (charge < 1e-10 and energy < 1e-5):
    sys.exit(f"{sys.argv[1]} drifts {charge} in charge and {energy} in energy over {len(rows)} rows")
PY

# A spectrum lists only eigenvalues below its essential edge, ascending.  At
# omega = -1e-12 the bracket up to the edge is 9.3e-12 wide and holds two.
# The kernel residual is min |v_j| over the listed values with j = b - 1 or
# b, where b is how many of them lie below 0; the bare defect's is null.
"${peakwave[@]}" spectrum --l1 1 --l2 1 --omega=-1e-12 --z 1e-7 --sector full --n 2001 --out "$out/spectrum-tiny.csv"
python - "$out"/spectrum-full.csv "$out"/spectrum-even.csv "$out"/spectrum-l2-even.csv \
  "$out"/spectrum-tiny.csv <<'PY'
import json, sys
for path in sys.argv[1:]:
    with open(path) as handle:
        header = json.loads(handle.readline()[2:])
        handle.readline()
        values = [float(line.split(",")[1]) for line in handle]
    edge, residual = header["essential_edge"], header["kernel_residual"]
    if not values or any(a >= b for a, b in zip(values, values[1:])) or values[-1] >= edge:
        sys.exit(f"{path} lists {values}, not ascending below the edge {edge}")
    if path.endswith("spectrum-tiny.csv") and len(values) != 2:
        sys.exit(f"{path} lists {values}, not the two eigenvalues below the edge {edge}")
    b = sum(v < 0.0 for v in values)
    if b == len(values) or residual != min(abs(values[j]) for j in (b - 1, b) if j >= 0):
        sys.exit(f"{path} prints the kernel residual {residual}, not the distance from 0 to {values}")
PY
python - "$out"/spectrum-free.json <<'PY'
import json, sys
residual = json.load(open(sys.argv[1]))["header"]["kernel_residual"]
if residual is not None:
    sys.exit(f"{sys.argv[1]} prints the kernel residual {residual} for the bare defect, not null")
PY

# Both sectors bisect the even block on the line's bracket, so at
# omega = -1e-12 they print the same lowest eigenvalue, byte for byte.  The
# full sector's n_points sums the sizes of its two blocks: the line's --n.
"${peakwave[@]}" spectrum --l1 1 --l2 1 --omega=-1e-12 --z 1e-7 --sector even --n 2001 --out "$out/spectrum-tiny-even.csv"
"${peakwave[@]}" spectrum --l1 1 --l2 1 --omega -2 --z -0.5 --sector full --n 2001 --out "$out/spectrum-unit.csv"
python - "$out"/spectrum-tiny.csv "$out"/spectrum-tiny-even.csv "$out"/spectrum-unit.csv <<'PY'
import json, sys
full, even, unit = (open(path).read().split("\n") for path in sys.argv[1:])
if full[2].split(",")[1] != even[2].split(",")[1]:
    sys.exit(f"the full and even sectors list {full[2]} and {even[2]} as their lowest eigenvalue")
n_points = json.loads(unit[0][2:])["n_points"]
if n_points != 2001:
    sys.exit(f"{sys.argv[3]} has n_points {n_points}, not the --n 2001 it was asked for")
PY

# Each of these is a usage error: exit 2, whatever the sizes asked for.
exits_2() {
  local code=0
  timeout 30 "${peakwave[@]}" "$@" || code=$?
  test "$code" -eq 2
}
exits_2 find-zstar --bracket -0.75 -0.95
exits_2 simulate --l1 1 --l2 1 --omega -2 --z 1 --horizon 0.1 --dt 1e-300
exits_2 vk-scan --omega-min -3 --omega-max -1 --omega-points 100000000000000000000 --z-min 0.5
exits_2 spectrum --l1 1 --l2 1 --omega -2 --z 1 --n 300000001
exits_2 spectrum --l1 1 --l2 1 --omega -2 --z 1 --n 1
exits_2 simulate --l1 1 --l2 1 --omega -2 --z 1 --horizon 0.1 --perturbation none --amplitude 0.05
# Finite coefficients whose kappa^2 = (lambda1/4)^2 - (lambda2/3)*omega overflows.
exits_2 classify --l1 1e160 --l2 1 --omega -1 --z 0.5
exits_2 vk-scan --l1 1e300 --l2 1 --omega-min -1 --omega-max -1 --omega-points 1 --z-min 0.5
exits_2 profile --l1 1e300 --l2 1e300 --omega -1 --z 0.5 --n 3
# An odd bump that vanishes at every node of an admissible grid (h = 50).
exits_2 simulate --l1 1 --l2 1 --omega=-1e-6 --z 1e-3 --n 1201 --perturbation odd --amplitude 1e-9
# Points within rounding of an edge of the window: the shift's tanh(nu*b)
# rounds to 1, kappa^2 to 0, or the charge's artanh argument to 1.
exits_2 profile --l1 1 --l2 1 --omega=-1.0000000000000002 --z 2 --n 21
exits_2 classify --l1 2 --l2 -1 --omega=-0.25000000000000006 --z 1
exits_2 spectrum --l1 3 --l2 -5 --omega=-0.33749999999999997 --z 0 --n 1201
exits_2 vk-scan --l1 7.90597882652009 --l2=-2.564831349355059 --omega-min=-4.569342923446585 --omega-max=-4.569342923446585 --omega-points 1 --z-min=-2.4954940761092166
# A horizon shorter than half a step (dt = 0.00884).
exits_2 simulate --l1 1 --l2 1 --omega=-2 --z 1 --horizon 1e-3 --n 1201

# Tolerances scale with omega: a tiny and a huge frequency both classify.
for point in "--omega=-1e-8 --z=1e-5" "--omega=-1e-8 --z=-1e-5" "--omega=-1e12 --z=5e5"; do
  verdict=$(timeout 30 "${peakwave[@]}" classify --l1 1 --l2 1 $point)
  case "$verdict" in *"(numeric=analytic)") ;; *) echo "classify $point wrote: $verdict" >&2; exit 1 ;; esac
done

# A bad --dt is a DomainError like any other bad argument.
dt_err=$(timeout 30 "${peakwave[@]}" simulate --l1 1 --l2 1 --omega -2 --z 1 --horizon 0.1 --dt 0 2>&1 >/dev/null) || true
case "$dt_err" in DomainError:*) ;; *) echo "simulate --dt 0 wrote: $dt_err" >&2; exit 1 ;; esac

# A numerical error: exit 3.  Here the grid at |omega| = 1e151 is so fine
# that its squared coupling 2/h^4 overflows, the grid at |omega| = 1e-200 so
# coarse that its squared coupling 1/h^4 underflows, the --n 3 grid (h = 21.2)
# breaks the resolution bound, which simulate checks before it samples a bump,
# and the slope's complex step 1e-20*|omega| rounds to 0 at |omega| = 1e-307.
exits_3() {
  local code=0
  timeout 30 "${peakwave[@]}" "$@" || code=$?
  test "$code" -eq 3
}
exits_3 spectrum --l1 1 --l2 1 --omega=-1e151 --z 1
exits_3 classify --l1 1 --l2 1 --omega=-1e-200 --z 5e-101
exits_3 simulate --l1 1 --l2 1 --omega=-2 --z 1 --n 3 --perturbation odd --amplitude 1e-3
exits_3 vk-scan --omega-min=-1e-307 --omega-max=-1e-307 --omega-points 1 --z-min 1e-154

# An --out that names an existing directory is an I/O error: exit 4, no
# temporary file left beside it, and a message that names --out.
mkdir -p "$out/taken"
out_code=0
out_err=$(timeout 30 "${peakwave[@]}" vk-scan --omega-min -3 --omega-max -1 --omega-points 3 --z-min 0.5 \
  --out "$out/taken" 2>&1 >/dev/null) || out_code=$?
test "$out_code" -eq 4
if compgen -G "$out/.peakwave-*.tmp" > /dev/null; then
  echo "vk-scan --out $out/taken left a temporary file in $out" >&2; exit 1
fi
case "$out_err" in *--out*) ;; *) echo "vk-scan --out $out/taken wrote: $out_err" >&2; exit 1 ;; esac

# An --out in a directory that does not exist is an I/O error too: exit 4,
# and a message that names --out rather than a temporary file.
out_code=0
out_err=$(timeout 30 "${peakwave[@]}" vk-scan --omega-min -3 --omega-max -1 --omega-points 3 --z-min 0.5 \
  --out "$out/missing/dir/x.csv" 2>&1 >/dev/null) || out_code=$?
test "$out_code" -eq 4
case "$out_err" in *--out*) ;; *) echo "vk-scan --out $out/missing/dir/x.csv wrote: $out_err" >&2; exit 1 ;; esac

# An --out ending in a separator names a directory too: exit 4, a message
# that names --out, and no temporary file beside it.
out_code=0
out_err=$(timeout 30 "${peakwave[@]}" vk-scan --omega-min -3 --omega-max -1 --omega-points 3 --z-min 0.5 \
  --out "$out/taken/" 2>&1 >/dev/null) || out_code=$?
test "$out_code" -eq 4
if compgen -G "$out/.peakwave-*.tmp" > /dev/null || compgen -G "$out/taken/.peakwave-*.tmp" > /dev/null; then
  echo "vk-scan --out $out/taken/ left a temporary file" >&2; exit 1
fi
case "$out_err" in *--out*) ;; *) echo "vk-scan --out $out/taken/ wrote: $out_err" >&2; exit 1 ;; esac

# A FIFO is written through, as open() writes it: its reader gets the report
# and the FIFO is still there afterwards.
mkfifo "$out/pipe"
timeout 30 cat "$out/pipe" > "$out/from-pipe.csv" &
reader=$!
timeout 30 "${peakwave[@]}" vk-scan --omega-min -3 --omega-max -1 --omega-points 3 --z-min 0.5 --out "$out/pipe"
wait "$reader"
timeout 30 "${peakwave[@]}" vk-scan --omega-min -3 --omega-max -1 --omega-points 3 --z-min 0.5 \
  | cmp - "$out/from-pipe.csv"
[ -p "$out/pipe" ] || { echo "vk-scan --out $out/pipe replaced the FIFO" >&2; exit 1; }

# A report gets the mode a plain open() gives it: 644 under umask 022.
(umask 022 && timeout 30 "${peakwave[@]}" vk-scan --omega-min -3 --omega-max -1 --omega-points 3 --z-min 0.5 \
  --out "$out/mode.csv")
mode=$(stat -c %a "$out/mode.csv")
test "$mode" = 644 || { echo "vk-scan --out under umask 022 wrote mode $mode, not 644" >&2; exit 1; }

# Where L1's gap and the slope index both fail, the gap is checked first:
# exit 3, nothing on stdout, and the precondition named.
cls_code=0
cls_err=$(timeout 30 "${peakwave[@]}" classify --l1 1 --l2 1 --omega -0.19 --z -0.8660254037844386 \
  2>&1 >"$out/coincidence.txt") || cls_code=$?
test "$cls_code" -eq 3 && test ! -s "$out/coincidence.txt"
case "$cls_err" in "PreconditionError: L1 spectrum approaches 0"*) ;;
  *) echo "classify at the coincidence wrote: $cls_err" >&2; exit 1 ;; esac

# Between the threshold and 0 the full space is unstable and the even sector
# stable, and both classifiers say so.
for space in full:OrbitallyUnstable even:OrbitallyStable; do
  verdict=$(timeout 30 "${peakwave[@]}" classify --l1 1 --l2 1 --omega -2 --z -0.5 --space "${space%%:*}")
  test "$verdict" = "${space#*:} (numeric=analytic)" \
    || { echo "classify --space ${space%%:*} wrote: $verdict" >&2; exit 1; }
done

# Only `simulate` loads scipy, and only when it builds its stepper.
python -c 'import sys, peakwave.cli; loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]; sys.exit(f"import peakwave.cli loaded {loaded}" if loaded else 0)'
