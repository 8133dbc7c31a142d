#!/usr/bin/env bash
# Checks the command-line drivers' shared main (run_driver, core/options.h).
#
#   tools/driver_usage_check.sh help|unknown-flag|usage-error DRIVER[:ARG]...
#
# Each spec is a driver path followed by colon-separated arguments (a
# subcommand, or a whole command line). Mode `help`: `DRIVER [ARG...]
# --help` must print a usage text on stdout and exit 0. Mode
# `unknown-flag`: `DRIVER [ARG...] --no-such-flag` must print the error and
# a usage text on stderr and exit 2. Mode `usage-error`: `DRIVER ARG...`
# as given must do the same (a malformed value, say). Prints one line per
# spec; exits 1 if any spec fails.
set -u
mode="$1"
shift
case "$mode" in
  help) flag=(--help) want=0 ;;
  unknown-flag) flag=(--no-such-flag) want=2 ;;
  usage-error) flag=() want=2 ;;
  *) echo "usage: $0 help|unknown-flag|usage-error DRIVER[:ARG]..." >&2
     exit 2 ;;
esac

failed=0
for spec in "$@"; do
  bin="${spec%%:*}"
  args=()
  [[ "$spec" == *:* ]] && IFS=: read -r -a args <<<"${spec#*:}"
  name="$(basename "$bin") ${args[*]:-}"
  if [ "$mode" = help ]; then
    text="$("$bin" "${args[@]}" "${flag[@]}" 2>/dev/null)"
    code=$?
  else
    text="$("$bin" "${args[@]}" "${flag[@]}" 2>&1 >/dev/null)"
    code=$?
  fi
  if [ "$code" -ne "$want" ] || ! grep -q '^usage: ' <<<"$text"; then
    echo "FAIL $name: exit $code; want exit $want and a usage text"
    failed=1
  else
    echo "ok   $name"
  fi
done
exit "$failed"
