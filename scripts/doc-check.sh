#!/bin/sh
# doc-check: fail when docs/CLI.md and the cmd/ binaries drift apart.
#
# For every command under cmd/, the script asks the binary itself for its
# flags (go run <cmd> -h) and requires each one to appear in docs/CLI.md as
# `-flag`; it also requires a "## <command>" section per command, rejects
# documented commands that no longer exist, and checks that every FFR_*
# environment variable the source reads stays documented. Run via `make doc-check` (CI
# runs it on every push).

set -u
doc=docs/CLI.md
fail=0

if [ ! -f "$doc" ]; then
    echo "doc-check: $doc does not exist"
    exit 1
fi

for dir in cmd/*/; do
    name=$(basename "$dir")
    if ! grep -q "^## $name" "$doc"; then
        echo "doc-check: $doc has no '## $name' section"
        fail=1
        continue
    fi
    # flag's -h usage lists every defined flag as "  -name ...": parse the
    # names out of the binary itself so the check can never go stale.
    flags=$( { go run "./$dir" -h 2>&1 || true; } | awk '/^  -/{print substr($1, 2)}')
    if [ -z "$flags" ]; then
        echo "doc-check: could not extract flags from $name"
        fail=1
        continue
    fi
    for f in $flags; do
        if ! grep -E -q -- "\`-$f\b" "$doc"; then
            echo "doc-check: $name flag -$f is not documented in $doc"
            fail=1
        fi
    done
done

# Every documented command section must still exist (non-command sections
# like "## Environment variables" don't start with ffr).
for name in $(awk '/^## ffr/{print $2}' "$doc"); do
    if [ ! -d "cmd/$name" ]; then
        echo "doc-check: $doc documents '## $name' but cmd/$name does not exist"
        fail=1
    fi
done

# Every FFR_* environment variable the program reads must stay documented.
# The list comes from the Getenv/LookupEnv sites themselves, so adding or
# deleting a variable needs no edit here.
envs=$(grep -rhoE --include='*.go' --exclude='*_test.go' '(Getenv|LookupEnv)\("FFR_[A-Z0-9_]+"' . |
    grep -oE 'FFR_[A-Z0-9_]+' | sort -u)
if [ -z "$envs" ]; then
    echo "doc-check: found no FFR_* environment reads in the source"
    fail=1
fi
for env in $envs; do
    if ! grep -q "$env" "$doc"; then
        echo "doc-check: environment variable $env is not documented in $doc"
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "doc-check: FAILED — update docs/CLI.md"
    exit 1
fi
echo "doc-check: OK"
