#!/usr/bin/env sh
# Starts sweep_server with each bad numeric flag value below and asserts a
# clean rejection: exit code 2 (the unknown-flag code), an
# "invalid value for --flag" message, and no uncaught-exception
# `terminate` or leaked contract text. The removed --shard-size flag must
# exit 2 as an unknown flag. Each run has a 10 s timeout, so a
# value that is wrongly accepted (a server that starts listening) fails
# instead of hanging. Usage:
#
#   scripts/check_server_flags.sh ./build/example_sweep_server
set -u

server="${1:?usage: check_server_flags.sh <sweep_server binary>}"
err="$(mktemp)"
trap 'rm -f "$err"' EXIT

fail=0
checked=0
for arg in --workers=abc --spp=10 --listen=70000 --job-cache=-1 \
    --spp=abc --queue=1x --heartbeat=-1 --workers=; do
    checked=$((checked + 1))
    timeout 10 "$server" "$arg" </dev/null >/dev/null 2>"$err"
    rc=$?
    flag="${arg%%=*}"
    if [ "$rc" -ne 2 ]; then
        echo "check_server_flags: $arg exited $rc (want 2)" >&2
        fail=1
    fi
    if ! grep -q "^invalid value for $flag: " "$err"; then
        echo "check_server_flags: $arg did not report 'invalid value for $flag':" >&2
        cat "$err" >&2
        fail=1
    fi
    if grep -q -e terminate -e "ContractError" -e "\.cpp:" "$err"; then
        echo "check_server_flags: $arg leaked an internal error:" >&2
        cat "$err" >&2
        fail=1
    fi
done

# The shard size is worked out per job; the old flag is now unknown.
checked=$((checked + 1))
timeout 10 "$server" --shard-size=8 </dev/null >/dev/null 2>"$err"
rc=$?
if [ "$rc" -ne 2 ] || ! grep -q "^unknown flag: --shard-size=8" "$err"; then
    echo "check_server_flags: --shard-size=8 exited $rc (want 2, 'unknown flag'):" >&2
    cat "$err" >&2
    fail=1
fi

if [ "$fail" -eq 0 ]; then
    echo "check_server_flags: $checked bad flag values cleanly rejected with exit 2"
fi
exit "$fail"
