# Runtime checks of the installed `foursq` command, without the test extras.
#
#     bash -e tests/runtime_smoke.sh
#
# Run it with `bash -e` and without pipefail (the PIPESTATUS line below
# reads the exit status of verify, not of head), from a directory it may
# fill with checkpoints, CSVs and JSON reports, with `foursq` on PATH.
# CI uninstalls mpmath first; tests/test_cli.py runs it with mpmath refused.
#
# mpmath is a test extra only: the window certificates are exact
# integer computations.  The second checkpointed run resumes from
# a complete journal.  reps, identities and candidates at INT64_MAX
# run the Hamilton product, the square walks and the set-member walk;
# the squares candidates there take the longest member walk, 55,109
# squares up to isqrt(2**63 - 1), of which 27,554 indices pass.
# oracle and check parse the --m/--quad/--set arguments they share
# with solve; the CSV run joins the per-m codes of 19 chunks.  The
# oracle at m = 999999 builds its largest table at its bound
# (16,343,040 int32 rows) with the numpy of this matrix cell.
# A closed reader exits 141: 20,000 CSV lines overfill the pipe, so
# head exits while verify still writes.  A verify range past
# 2**63 - 1 exits 3 before any chunk runs, and so does --workers 0.
# reps exits 3 past 2**63 - 1 and 2 past its work bound of 10**6.
# The natural box decides (2,2,3,0)/pow2 at 10**9 + 7 (no natural
# solution, exit 1) at once, where the descent took seconds.  Three
# solves print the pick of each branch of the chain in
# solve_linear_system: the natural box, the first natural solution of
# the descent, and the plain descent's first at a pinned n.
# A 2-worker checkpointed run at chunk 16 (16 chunks to a pool task,
# one journal save per task), its resume from the finished journal
# and a 1-worker run write the same CSV.  So do 2 and 1 workers over
# 64 m of 1.1 at 10**12: each forked worker builds its own residue
# tables, in plain Python; only the oracle imports numpy.  1.4b below
# its threshold fails 187 of 200 m (exit 1); with 2 workers and with 1
# the report lists the same first 100 failures, in increasing m.
# 1.1 near 1e5, with 2 workers and 1, reads the inherited two-square table.
# 1.1 at 10**18, with 2 workers and 1: 755 of its 765 B-scans take
# several sieve runs, and forked workers read the patterns they inherit.
foursq bounds
foursq verify --theorem 1.4a --lo 3740000000 --hi 3740000050
foursq verify --theorem 1.3 --lo 0 --hi 2000 --chunk 16 --checkpoint ck.jsonl
foursq verify --theorem 1.3 --lo 0 --hi 2000 --chunk 16 --checkpoint ck.jsonl
foursq reps --m 22
foursq identities
foursq candidates --m 9223372036854775807 --kind cubes
test "$(foursq candidates --m 9223372036854775807 --kind squares | wc -w)" -eq 27554
foursq oracle --m 150 --quad 1,1,2,4 --set cubes
foursq oracle --m 999999 --quad 1,2,3,5 --set squares | grep -qx "oracle: x=-987 y=39 z=78 t=135 n=0"
foursq check --m 22 --quad 1,1,2,4 --set cubes --x 4 --y -2 --z 1 --t 1
foursq verify --theorem 1.2 --lo 1 --hi 300 --chunk 16 --format csv
foursq verify --theorem 1.3 --lo 0 --hi 20000 --chunk 256 --format csv | head -1; test "${PIPESTATUS[0]}" -eq 141
code=0; foursq verify --theorem 1.1 --lo 9223372036854775807 --hi 9223372036854775809 || code=$?; test "$code" -eq 3
code=0; foursq verify --theorem 1.1 --lo 0 --hi 20 --workers 0 || code=$?; test "$code" -eq 2
code=0; foursq reps --m 100000000000000000000000 || code=$?; test "$code" -eq 3
code=0; foursq reps --m 1000001 || code=$?; test "$code" -eq 2
code=0; foursq solve --m 1000000007 --quad 2,2,3,0 --set pow2 --natural || code=$?; test "$code" -eq 1
foursq solve --m 52 --quad 1,1,2,5 --set squares --natural | grep -qx "x=0 y=4 z=6 t=0 n=16"
foursq solve --m 39 --quad 1,2,3,5 --set squares --natural | grep -qx "x=1 y=1 z=1 t=6 n=36"
foursq solve --m 1000 --quad 1,2,3,5 --set pow2 --n 8 | grep -qx "x=26 y=-16 z=8 t=-2 n=8"
foursq verify --theorem 1.3 --lo 0 --hi 4096 --chunk 16 --workers 2 --checkpoint ck2.jsonl --format csv > pool.csv
foursq verify --theorem 1.3 --lo 0 --hi 4096 --chunk 16 --workers 2 --checkpoint ck2.jsonl --format csv > resumed.csv
foursq verify --theorem 1.3 --lo 0 --hi 4096 --chunk 16 --workers 1 --format csv > serial.csv
cmp pool.csv resumed.csv
cmp pool.csv serial.csv
foursq verify --theorem 1.1 --lo 1000000000000 --hi 1000000000064 --chunk 8 --workers 2 --format csv > cold2.csv
foursq verify --theorem 1.1 --lo 1000000000000 --hi 1000000000064 --chunk 8 --workers 1 --format csv > cold1.csv
cmp cold2.csv cold1.csv
foursq verify --theorem 1.1 --lo 100000 --hi 102000 --workers 2 --format csv > table2.csv
foursq verify --theorem 1.1 --lo 100000 --hi 102000 --workers 1 --format csv > table1.csv
cmp table2.csv table1.csv
foursq verify --theorem 1.1 --lo 1000000000000000000 --hi 1000000000000000064 --chunk 8 --workers 2 --format csv > sieve2.csv
foursq verify --theorem 1.1 --lo 1000000000000000000 --hi 1000000000000000064 --chunk 8 --workers 1 --format csv > sieve1.csv
cmp sieve2.csv sieve1.csv
for w in 2 1; do code=0; foursq verify --theorem 1.4b --lo 10000 --hi 10200 --chunk 8 --workers $w > fail$w.json || code=$?; test "$code" -eq 1; done
python -c "import json; a, b = (json.load(open(f'fail{w}.json'))['failures'] for w in (2, 1)); ms = [f['m'] for f in a]; assert a == b and len(a) == 100 and all(x < y for x, y in zip(ms, ms[1:]))"
