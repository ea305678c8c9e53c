#!/usr/bin/env bash
# Mutation gate: every fail-closed check must be able to fail.
#
# Applies each one-edit mutant of tools/mutants.txt, one at a time, to a
# copy of the working tree, rebuilds the copy and runs the Tier-1 ctest
# suite.  A mutant is killed when some test fails; a mutant under which
# every test passes is a survivor, and any survivor fails the run.  A
# mutant whose "from" text is missing or ambiguous, or that does not
# compile, is an error in the list and also fails the run.
#
# The copy and its build tree live in $MUTANTS_DIR (default
# ${TMPDIR:-/tmp}/pufatt-mutants); the repository itself is never edited.
# The copy is built once unmutated, and that baseline must pass ctest;
# each mutant then costs one incremental rebuild and one ctest run.
#
# Usage: tools/mutants.sh   (or tools/ci.sh --mutants)
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$(pwd)"
LIST="${ROOT}/tools/mutants.txt"
WORK="${MUTANTS_DIR:-${TMPDIR:-/tmp}/pufatt-mutants}"
JOBS="$(nproc 2>/dev/null || echo 4)"
SRC="${WORK}/src"
BUILD="${WORK}/build"

# Parse the list into parallel arrays.
ids=() files=() froms=() tos=()
while IFS= read -r line || [[ -n "${line}" ]]; do
  case "${line}" in
    ''|'#'*) continue ;;
    'mutant '*) ids+=("${line#mutant }") ;;
    'file '*) files+=("${line#file }") ;;
    'from '*) froms+=("${line#from }") ;;
    'to '*) tos+=("${line#to }") ;;
    *) echo "mutants.txt: cannot parse '${line}'" >&2; exit 2 ;;
  esac
done < "${LIST}"
n="${#ids[@]}"
if [[ "${#files[@]}" != "${n}" || "${#froms[@]}" != "${n}" ||
      "${#tos[@]}" != "${n}" || "${n}" == 0 ]]; then
  echo "mutants.txt: every mutant needs one file, from and to line" >&2
  exit 2
fi

if [[ $# -ne 0 ]]; then
  echo "usage: tools/mutants.sh" >&2
  exit 2
fi

# Replaces the one occurrence of $3 in file $2 by $4; $1 = "check" only
# verifies that there is exactly one.
edit() {
  python3 - "$@" <<'EOF'
import sys
mode, path, old, new = sys.argv[1:5]
old, new = (t.replace("\\n", "\n") for t in (old, new))
text = open(path).read()
count = text.count(old)
if count != 1:
    sys.exit(f"{path}: 'from' text occurs {count} times, want 1: {old}")
if mode == "apply":
    open(path, "w").write(text.replace(old, new))
EOF
}

echo "=== mutants: copying the working tree to ${SRC} ==="
rm -rf "${SRC}"
mkdir -p "${SRC}"
git ls-files -z --cached --others --exclude-standard |
  while IFS= read -r -d '' f; do
    if [[ -e "${f}" ]]; then printf '%s\0' "${f}"; fi
  done |
  tar --null -T - -cf - | tar -xmf - -C "${SRC}"

for i in "${!ids[@]}"; do
  edit check "${SRC}/${files[$i]}" "${froms[$i]}" "${tos[$i]}"
done

run_ctest() {
  (cd "${BUILD}" && ctest --no-tests=error --timeout 600 -j "${JOBS}" \
      --stop-on-failure > "${WORK}/ctest.log" 2>&1)
}

echo "=== mutants: baseline build and ctest ==="
cmake -B "${BUILD}" -S "${SRC}" > "${WORK}/configure.log"
cmake --build "${BUILD}" -j "${JOBS}" > "${WORK}/build.log"
if ! run_ctest; then
  echo "mutants.sh: the unmutated tree fails ctest (${WORK}/ctest.log)" >&2
  exit 1
fi

killed=() survived=() broken=()
for i in "${!ids[@]}"; do
  id="${ids[$i]}"
  target="${SRC}/${files[$i]}"
  cp -p "${target}" "${WORK}/pristine"
  edit apply "${target}" "${froms[$i]}" "${tos[$i]}"
  if ! cmake --build "${BUILD}" -j "${JOBS}" > "${WORK}/build.log" 2>&1; then
    echo "BROKEN   ${id} (does not compile; see ${WORK}/build.log)"
    broken+=("${id}")
  elif run_ctest; then
    echo "SURVIVED ${id}"
    survived+=("${id}")
  else
    first="$(grep -A1 'tests FAILED' "${WORK}/ctest.log" | tail -n 1 || true)"
    echo "killed   ${id} (first failure:${first#*-})"
    killed+=("${id}")
  fi
  cp -p "${WORK}/pristine" "${target}"
  touch "${target}"
done
# Leave the build tree matching the pristine copy.
cmake --build "${BUILD}" -j "${JOBS}" > "${WORK}/build.log"

echo "=== mutants: ${#killed[@]} killed, ${#survived[@]} survived," \
     "${#broken[@]} broken, of ${n} ==="
[[ ${#survived[@]} -eq 0 && ${#broken[@]} -eq 0 ]]
