#!/usr/bin/env bash
# Runs the installed stirling2adic console script from the current directory,
# which should lie outside the checkout, so that the package is the installed
# one and not src/.  Each check pins a command's first output line and exit code,
# and gives the command at most 60 seconds.
set -u

check() {
    local expected_code=$1 expected_line=$2 code=0 out
    shift 2
    # a command that hangs fails the job after a minute (exit 124) instead of blocking it
    out=$(timeout 60 stirling2adic "$@") || code=$?
    printf '%s\n' "$out"
    if [ "$code" != "$expected_code" ] || [ "$(printf '%s\n' "$out" | head -n 1)" != "$expected_line" ]; then
        echo "stirling2adic $*: exit $code, expected exit $expected_code and first line '$expected_line'" >&2
        exit 1
    fi
}

check 0 'nu2(S(1000000,64)) = 0' val 1000000 64
check 2 'nu2(S(40,8) - S(8,8)) = 6' diff 5 1 3 8  # the pinned A05 cell: the formula fails here
# every cell confirmed: the explicit rows' difference table in int64 limbs agrees with the other engines
check 0 'bits,n,k_max,first_mismatch,source,claim_kind,claim_value,observed_kind,observed_value,verdict' cross-validate --n-max 120 --k-max 40 --bits 8,65 --format csv
# k_max at the explicit rows' cap: residues 1,013 bits wider than asked, values of up to 12 limbs (on numpy 1.24 in the numpy-floor job)
check 0 'bits,n,k_max,first_mismatch,source,claim_kind,claim_value,observed_kind,observed_value,verdict' cross-validate --n-max 60 --k-max 1022 --bits 8,200 --format csv
# the first rung is past 64 bits: the row pass of 3 * 2**33 steps jumps in the numpy object lane
check 0 'nu2(S(25769803776,5) - S(8589934592,5)) = 33' diff 3 1 33 5
# rows 1,001 wide jump by at most 32 steps: over 1e13 lane-steps, refused at once (exit 70, nothing on stdout)
check 70 '' diff 3 1 33 1000
# the sweep's column path from the installed package (on numpy 1.24 in the numpy-floor job)
check 0 'n,c,k,N,source,claim_kind,claim_value,observed_kind,observed_value,verdict' sweep lengyel-eq --range n=1..3 --format csv
# 4 * 2**60 cells: refused from the blocks' closed-form counts before any is built (exit 70, nothing on stdout)
check 70 '' sweep lengyel-eq --range n=60
# a negative cap is bad input, refused before any block is planned (exit 64)
check 64 '' sweep lengyel-eq --cell-cap -1
# the coded columns on numpy 1.24 in the numpy-floor job: a column of texts (slack) ...
check 0 'p,v,m,n,slack,source,claim_kind,claim_value,observed_kind,observed_value,verdict' sweep junod --range m=0..2 --range n=1..2 --format csv
# ... and str values shared by every cell of a block, in two params layouts
check 0 'identity,n,m,k,k1,k2,r,source,claim_kind,claim_value,observed_kind,observed_value,verdict' check-identities --max-conv 2 --max-sym 1 --junod-max 1 --junod-p3-max 0 --format csv
# the convolution identity needs m >= 1: m = 0 is bad input (exit 64), not a violation
check 64 '' sweep identities --range conv_m=0..1
# each statement's column path from the installed package: the shared formulas of the predictors
check 0 'c,n,k,a,arg_n,arg_k,source,claim_kind,claim_value,observed_kind,observed_value,verdict' sweep lem-theta --range n=3..4 --format csv
check 0 'n,b,m,c,a,k,N,source,claim_kind,claim_value,observed_kind,observed_value,verdict' sweep thm-shifted-triple --range n=1..2 --range b=1..2 --format csv
check 0 'c,n,m,N,k,source,claim_kind,claim_value,observed_kind,observed_value,verdict' sweep lem-shifted-power --range n=1..3 --format csv
# exit 2 on the pinned A05 cells, where the difference formula fails
check 2 'a,b,n,k,N1,N2,source,claim_kind,claim_value,observed_kind,observed_value,verdict' sweep thm-difference --range n=2..3 --format csv
