#!/usr/bin/env bash
# cli_error_paths.sh — pins ftbfs_cli's error-path contract, wired into
# ctest as `cli_error_paths` (CMakeLists passes the built binary).
#
# The contract, for EVERY refused invocation:
#   * the process exits non-zero (scripts and CI can gate on $?);
#   * the diagnostic lands on stderr, never stdout (stdout is reserved for
#     the machine-readable --json reports, so `cli ... --json | jq` can
#     never swallow an error message as data).
#
# Covered refusals: unknown command / empty argv, bad --fault-model,
# malformed --sources (including the trailing-garbage form "5x" that a
# lenient strtoll would silently truncate), bad --graph-format, a missing
# graph file, --eps on a non-edge pipeline, --site-dist on a non-dual
# pipeline, flags the subcommand does not read (a typo, the removed
# --dual-dfs-schedule and --v5), and structure upgrade / verify on a
# truncated v5/v6 artifact, and fsck's DEGRADED verdict on an artifact cut
# inside its site-dist section. Flags come from argv only: an FTBFS_*
# environment variable must not change a build. build --out writes the
# checksummed v5 text artifact by default; the script checks its header
# and that fsck passes it clean.
set -u

CLI="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
fails=0

# expect_fail NAME [--allow-stdout] CMD...
# Runs CMD, requires: non-zero exit, non-empty stderr, and (unless
# --allow-stdout) an empty stdout.
expect_fail() {
  local name="$1"
  shift
  local allow_stdout=0
  if [ "$1" = "--allow-stdout" ]; then
    allow_stdout=1
    shift
  fi
  local out="$TMP/out.$name" err="$TMP/err.$name"
  "$@" >"$out" 2>"$err"
  local rc=$?
  if [ "$rc" -eq 0 ]; then
    echo "FAIL($name): exit 0, expected non-zero"
    fails=$((fails + 1))
    return
  fi
  if [ ! -s "$err" ]; then
    echo "FAIL($name): empty stderr, expected a diagnostic"
    fails=$((fails + 1))
    return
  fi
  if [ "$allow_stdout" -eq 0 ] && [ -s "$out" ]; then
    echo "FAIL($name): wrote to stdout:"
    sed 's/^/    /' "$out"
    fails=$((fails + 1))
    return
  fi
  echo "ok($name): exit $rc, stderr-only"
}

# expect_unknown_flag NAME FLAG CMD...
# Runs CMD, requires: the usage exit code 2, FLAG named on stderr, and an
# empty stdout.
expect_unknown_flag() {
  local name="$1" flag="$2"
  shift 2
  local out="$TMP/out.$name" err="$TMP/err.$name"
  "$@" >"$out" 2>"$err"
  local rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q -- "$flag" "$err" || [ -s "$out" ]; then
    echo "FAIL($name): exit $rc, expected 2 naming $flag on stderr only:"
    sed 's/^/    /' "$err" "$out"
    fails=$((fails + 1))
    return
  fi
  echo "ok($name): exit 2, $flag named"
}

GRAPH="$TMP/g.edges"
"$CLI" generate --family=gnm --n=40 --m=120 --seed=1 --out="$GRAPH" \
  >/dev/null 2>&1 || { echo "FAIL(setup): generate"; exit 1; }

ART="$TMP/h.ftbfs"
"$CLI" build --graph="$GRAPH" --fault-model=dual --out="$ART" \
  >/dev/null 2>&1 || { echo "FAIL(setup): build"; exit 1; }

# The default build --out artifact is v5 text and fsck passes it clean
# (exit 0); with --site-dist it also carries the site-dist section.
SD="$TMP/sd.ftbfs"
"$CLI" build --graph="$GRAPH" --fault-model=dual --site-dist --out="$SD" \
  >/dev/null 2>&1 || { echo "FAIL(setup): build --site-dist"; exit 1; }
if [ "$(head -n 1 "$ART")" != "ftbfs-structure 5" ] ||
   [ "$(head -n 1 "$SD")" != "ftbfs-structure 5" ] ||
   ! grep -q '^section site-dist ' "$SD"; then
  echo "FAIL(default_out_is_v5): headers '$(head -n 1 "$ART")'," \
    "'$(head -n 1 "$SD")'"
  fails=$((fails + 1))
elif ! "$CLI" fsck --graph="$GRAPH" --structure="$ART" >/dev/null 2>&1 ||
     ! "$CLI" fsck --graph="$GRAPH" --structure="$SD" >/dev/null 2>&1; then
  echo "FAIL(default_out_is_v5): fsck did not pass the artifacts clean"
  fails=$((fails + 1))
else
  echo "ok(default_out_is_v5): v5 header, site-dist section, fsck clean"
fi

# Argument-layer refusals.
expect_fail no_command "$CLI"
expect_fail unknown_command "$CLI" frobnicate --graph="$GRAPH"
expect_fail bad_fault_model \
  "$CLI" build --graph="$GRAPH" --fault-model=bogus
expect_fail malformed_sources_nonnumeric \
  "$CLI" build --graph="$GRAPH" --sources=0,x,10
expect_fail malformed_sources_trailing_garbage \
  "$CLI" build --graph="$GRAPH" --sources=0,5x,10
expect_fail bad_graph_format \
  "$CLI" info --graph="$GRAPH" --graph-format=yaml
expect_fail missing_graph_file \
  "$CLI" info --graph="$TMP/nope.edges"
expect_fail eps_on_dual \
  "$CLI" build --graph="$GRAPH" --fault-model=dual --eps=0.25
# --site-dist on a model without pair tables: BuildSpec::validate refuses
# it (exit 1, the spec field named on stderr) instead of dropping it.
"$CLI" build --graph="$GRAPH" --fault-model=edge --site-dist \
  >"$TMP/out.site_dist_on_edge" 2>"$TMP/err.site_dist_on_edge"
rc=$?
if [ "$rc" -ne 1 ] || ! grep -q site_dist "$TMP/err.site_dist_on_edge" ||
   [ -s "$TMP/out.site_dist_on_edge" ]; then
  echo "FAIL(site_dist_on_edge): exit $rc, expected 1 naming site_dist:"
  sed 's/^/    /' "$TMP/err.site_dist_on_edge" "$TMP/out.site_dist_on_edge"
  fails=$((fails + 1))
else
  echo "ok(site_dist_on_edge): exit 1, site_dist named"
fi
expect_unknown_flag typo_flag --espilon \
  "$CLI" build --graph="$GRAPH" --espilon=0.9
expect_unknown_flag removed_dual_dfs_schedule_flag --dual-dfs-schedule \
  "$CLI" build --graph="$GRAPH" --fault-model=dual --dual-dfs-schedule=off
expect_unknown_flag removed_v5_flag --v5 \
  "$CLI" build --graph="$GRAPH" --v5 --out="$TMP/x.ftbfs"

# The environment is not an option source: under FTBFS_EPS the build must
# still run at the default ε and write the default-ε artifact byte for byte.
"$CLI" build --graph="$GRAPH" --out="$TMP/plain.ftbfs" >/dev/null 2>&1 &&
  FTBFS_EPS=0.9 "$CLI" build --graph="$GRAPH" --out="$TMP/env.ftbfs" \
    --json >"$TMP/env.json" 2>/dev/null
if [ $? -ne 0 ] || ! grep -q '"eps": 0.25,' "$TMP/env.json" ||
   ! cmp -s "$TMP/plain.ftbfs" "$TMP/env.ftbfs"; then
  echo "FAIL(env_eps_ignored): FTBFS_EPS changed the build (or it failed)"
  fails=$((fails + 1))
else
  echo "ok(env_eps_ignored): FTBFS_EPS left the build unchanged"
fi

# Truncated-artifact refusals: cut the checksummed v5 artifact mid-file;
# the loader must refuse (CRC / framing), the CLI must exit non-zero.
BYTES=$(wc -c <"$ART")
head -c "$((BYTES / 2))" "$ART" >"$TMP/trunc.ftbfs"
expect_fail verify_truncated_artifact \
  "$CLI" verify --graph="$GRAPH" --structure="$TMP/trunc.ftbfs"
expect_fail convert_truncated_artifact \
  "$CLI" convert --graph="$GRAPH" --structure="$TMP/trunc.ftbfs" \
  --out="$TMP/up.ftbfs"
if [ -e "$TMP/up.ftbfs" ]; then
  echo "FAIL(convert_truncated_artifact): refused convert left an output file"
  fails=$((fails + 1))
fi

# fsck is the one command whose verdict IS its exit code. On a truncated
# artifact the tolerant default may still salvage a degraded-but-correct
# session (exit 1) or refuse outright (exit 2) depending on which section
# the cut lands in — either way the verdict must be non-zero. Under
# --strict the load must refuse, which IS the broken verdict (2).
"$CLI" fsck --graph="$GRAPH" --structure="$TMP/trunc.ftbfs" \
  >"$TMP/fsck.out" 2>"$TMP/fsck.err"
rc=$?
if [ "$rc" -ne 1 ] && [ "$rc" -ne 2 ]; then
  echo "FAIL(fsck_truncated): exit $rc, expected verdict 1 or 2"
  fails=$((fails + 1))
else
  echo "ok(fsck_truncated): exit $rc"
fi
"$CLI" fsck --graph="$GRAPH" --structure="$TMP/trunc.ftbfs" --strict \
  >"$TMP/fsck_strict.out" 2>"$TMP/fsck_strict.err"
rc=$?
if [ "$rc" -ne 2 ]; then
  echo "FAIL(fsck_truncated_strict): exit $rc, expected the broken verdict 2"
  fails=$((fails + 1))
else
  echo "ok(fsck_truncated_strict): exit 2"
fi

# A v5 artifact cut inside its site-dist section: the tolerant load drops
# the accelerator and serves on, but the shipped artifact is damaged, so
# fsck must report DEGRADED (exit 1), not "ok"; --strict refuses it (2).
SD_HDR=$(grep -a -b -m1 '^section site-dist ' "$SD" | cut -d: -f1)
SD_BYTES=$(wc -c <"$SD")
head -c "$((SD_HDR + (SD_BYTES - SD_HDR) / 2))" "$SD" >"$TMP/trunc_sd.ftbfs"
"$CLI" fsck --graph="$GRAPH" --structure="$TMP/trunc_sd.ftbfs" \
  >"$TMP/fsck_sd.out" 2>"$TMP/fsck_sd.err"
rc=$?
if [ "$rc" -ne 1 ] || ! grep -q '^fsck: DEGRADED' "$TMP/fsck_sd.out"; then
  echo "FAIL(fsck_site_dist_truncated): exit $rc, expected DEGRADED (1)"
  fails=$((fails + 1))
else
  echo "ok(fsck_site_dist_truncated): exit 1, DEGRADED"
fi
"$CLI" fsck --graph="$GRAPH" --structure="$TMP/trunc_sd.ftbfs" --strict \
  >/dev/null 2>&1
rc=$?
if [ "$rc" -ne 2 ]; then
  echo "FAIL(fsck_site_dist_truncated_strict): exit $rc, expected 2"
  fails=$((fails + 1))
else
  echo "ok(fsck_site_dist_truncated_strict): exit 2"
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails error-path check(s) FAILED"
  exit 1
fi
echo "all CLI error paths ok"
