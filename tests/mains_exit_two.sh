#!/bin/sh
# Malformed input to a bench or example program must end it with exit
# status 2 and "<program>: <message>" on stderr, never with an abort.
#
#   tests/mains_exit_two.sh <bench_table6_hetero_ppac> <cost_explorer>
set -u
status=0

# expect <status> <stderr text> <command...>
expect() {
  want=$1
  text=$2
  shift 2
  err=$("$@" 2>&1 >/dev/null)
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: '$*' exited $got, want $want; stderr: $err"
    status=1
  fi
  case $err in
    *"$text"*) ;;
    *) echo "FAIL: '$*' stderr lacks '$text': $err"; status=1 ;;
  esac
}

expect 2 "bench_table6_hetero_ppac: M3D_BENCH_SCALE: malformed value 'abc'" \
  env M3D_BENCH_SCALE=abc "$1"
expect 2 "cost_explorer: die_area_mm2: malformed value 'abc'" "$2" abc
expect 2 "cost_explorer: freq_ghz: malformed value '1.5GHz'" \
  "$2" 2 500 1.5GHz
exit $status
