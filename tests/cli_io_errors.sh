#!/usr/bin/env bash
# Regression: minimize_pla must turn filesystem failures into diagnostics +
# exit code 2 (and a {"status": ...} document in --json mode), never an
# uncaught exception or a silent success; a --batch run reports what the
# single-instance runs report. Registered as the ctest `test_cli_io_errors`;
# $1 is the minimize_pla binary.
set -u

BIN="${1:?usage: cli_io_errors.sh <minimize_pla>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
fails=0

check() { # <name> <want_rc> <got_rc>
  if [ "$3" -ne "$2" ]; then
    echo "FAIL $1: exit code $3, want $2"
    fails=$((fails + 1))
  fi
}

expect_status() { # <name> <want_status> <json-file>
  if ! grep -q "\"status\": \"$2\"" "$3"; then
    echo "FAIL $1: no status \"$2\" in: $(cat "$3")"
    fails=$((fails + 1))
  fi
}

# Unreadable input, text mode: diagnostic on stderr, exit 2.
"$BIN" "$TMP/missing.pla" >"$TMP/out" 2>"$TMP/err"; rc=$?
check unreadable-text 2 $rc
grep -q "cannot open PLA file" "$TMP/err" || {
  echo "FAIL unreadable-text: no diagnostic on stderr"; fails=$((fails + 1)); }

# Unreadable input, JSON mode: machine-readable status on stdout, exit 2.
"$BIN" "$TMP/missing.pla" --json >"$TMP/out" 2>/dev/null; rc=$?
check unreadable-json 2 $rc
expect_status unreadable-json io_error "$TMP/out"

# Malformed input: bad_input status, line/column diagnostic, exit 2.
printf 'not a pla\n' >"$TMP/bad.pla"
"$BIN" "$TMP/bad.pla" --json >"$TMP/out" 2>"$TMP/err"; rc=$?
check malformed 2 $rc
expect_status malformed bad_input "$TMP/out"
grep -q "line 1" "$TMP/err" || {
  echo "FAIL malformed: no line number in diagnostic"; fails=$((fails + 1)); }

# Unwritable --out: the error document, not a success report, and exit 2.
"$BIN" --instance=bench1 --json --out="$TMP/no-such-dir/x.pla" \
  >"$TMP/out" 2>/dev/null; rc=$?
check unwritable-out 2 $rc
expect_status unwritable-out io_error "$TMP/out"

# Same failure must also fail loudly in text mode (it used to exit 0).
"$BIN" --instance=bench1 --out="$TMP/no-such-dir/x.pla" \
  >/dev/null 2>"$TMP/err"; rc=$?
check unwritable-out-text 2 $rc
grep -q "cannot write output file" "$TMP/err" || {
  echo "FAIL unwritable-out-text: no diagnostic"; fails=$((fails + 1)); }

# Control: a writable --out still works and reports success.
"$BIN" --instance=bench1 --json --out="$TMP/min.pla" >"$TMP/out" 2>&1; rc=$?
check writable-out 0 $rc
test -s "$TMP/min.pla" || {
  echo "FAIL writable-out: empty output file"; fails=$((fails + 1)); }
expect_status writable-out ok "$TMP/out"

# Unreadable file inside a --batch list: same contract.
"$BIN" --batch=bench1 "$TMP/missing.pla" --json >"$TMP/out" 2>/dev/null; rc=$?
check batch-unreadable 2 $rc
expect_status batch-unreadable io_error "$TMP/out"

# Control: a --batch run exits 0 with a JSON array holding, per instance, the
# object a single --instance run prints (plus its "instance" name).
"$BIN" --batch=bench1,ex5 --json >"$TMP/batch" 2>/dev/null; rc=$?
check batch-ok 0 $rc
head -n 1 "$TMP/batch" | grep -q '^\[' || {
  echo "FAIL batch-ok: not a JSON array: $(cat "$TMP/batch")"
  fails=$((fails + 1)); }
for inst in bench1 ex5; do
  "$BIN" --instance="$inst" --json >"$TMP/one" 2>/dev/null
  item="$(grep "\"instance\": \"$inst\"" "$TMP/batch")"
  for field in status products literals lower_bound; do
    want="$(grep -o "\"$field\": [^,}]*" "$TMP/one")"
    case "$item" in
      *"$want"*) [ -n "$want" ] && continue ;;
    esac
    echo "FAIL batch-ok: $inst has no '$want' (single run) in: $item"
    fails=$((fails + 1))
  done
done

if [ "$fails" -ne 0 ]; then
  echo "$fails check(s) failed"
  exit 1
fi
echo "cli_io_errors OK"
