#!/usr/bin/env bash
# Runs the installed `peakwave` console script end to end: writes one report
# per command into OUTDIR, checks every header is standard JSON, checks the
# usage errors that must exit 2 and the numerical errors that must exit 3,
# checks that each spectrum lists only eigenvalues below its essential edge,
# and checks that importing the CLI loads no scipy.  Set PEAKWAVE to another
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
"${peakwave[@]}" spectrum --l1 1 --l2 1 --omega -2 --z -1 --kind L1 --sector full --n 2001 --out "$out/spectrum-full.csv"
"${peakwave[@]}" spectrum --l1 1 --l2 1 --omega -2 --z -1 --kind L1 --sector even --n 2001 --out "$out/spectrum-even.csv"
"${peakwave[@]}" spectrum --l1 1 --l2 1 --omega -2 --z -1 --kind free --n 1201 --format json --out "$out/spectrum-free.json"
test -s "$out/profile.csv" && test -s "$out/classify.json" && test -s "$out/simulate.json"
test -s "$out/spectrum-full.csv" && test -s "$out/spectrum-even.csv" && test -s "$out/spectrum-free.json"
python - "$out"/classify.json "$out"/simulate.json "$out"/spectrum-free.json \
  "$out"/profile.csv "$out"/spectrum-full.csv "$out"/spectrum-even.csv <<'PY'
import json, sys
def reject(constant):
    raise ValueError(f"{constant} is not standard JSON")
for path in sys.argv[1:]:
    with open(path) as handle:
        text = handle.read() if path.endswith(".json") else handle.readline()[2:]
    json.loads(text, parse_constant=reject)
PY

# A spectrum lists only eigenvalues below its essential edge, ascending.  At
# omega = -1e-12 the bracket up to the edge is 9.3e-12 wide and holds two.
"${peakwave[@]}" spectrum --l1 1 --l2 1 --omega=-1e-12 --z 1e-7 --n 2001 --out "$out/spectrum-tiny.csv"
python - "$out"/spectrum-full.csv "$out"/spectrum-even.csv "$out"/spectrum-tiny.csv <<'PY'
import json, sys
for path in sys.argv[1:]:
    with open(path) as handle:
        edge = json.loads(handle.readline()[2:])["essential_edge"]
        handle.readline()
        values = [float(line.split(",")[1]) for line in handle]
    if not values or any(a >= b for a, b in zip(values, values[1:])) or values[-1] >= edge:
        sys.exit(f"{path} lists {values}, not ascending below the edge {edge}")
    if path.endswith("spectrum-tiny.csv") and len(values) != 2:
        sys.exit(f"{path} lists {values}, not the two eigenvalues below the edge {edge}")
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
# that its squared coupling 2/h^4 overflows, and the --n 3 grid (h = 21.2)
# breaks the resolution bound, which simulate checks before it samples a bump.
exits_3() {
  local code=0
  timeout 30 "${peakwave[@]}" "$@" || code=$?
  test "$code" -eq 3
}
exits_3 spectrum --l1 1 --l2 1 --omega=-1e151 --z 1
exits_3 simulate --l1 1 --l2 1 --omega=-2 --z 1 --n 3 --perturbation odd --amplitude 1e-3

# Only `simulate` loads scipy, and only when it builds its stepper.
python -c 'import sys, peakwave.cli; loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]; sys.exit(f"import peakwave.cli loaded {loaded}" if loaded else 0)'
