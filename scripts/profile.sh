#!/usr/bin/env bash
# Sampling CPU profile of one benchmark workload, on hosts without perf or
# valgrind.
#
#   scripts/profile.sh <workload> [seed] [seconds]
#
# Builds benchmark/ with frame pointers and line tables into target/profile
# (benchmark/ and its Cargo.lock are left as they are), compiles a small
# SIGPROF sampler with the system cc, runs `metabench --trace 0` with it
# preloaded, and prints the self and inclusive share of samples per function.
# ITIMER_PROF fires every 1 ms of CPU time; a sample is the interrupted
# instruction pointer plus the frame-pointer chain above it. When the
# instruction pointer lies outside metabench (a libc/libm leaf built without
# frame pointers), the word at the stack pointer stands in for its caller.
# Needs cc, addr2line and python3.
set -euo pipefail

usage="usage: scripts/profile.sh <workload> [seed] [seconds]"
workload="${1:?$usage}"
seed="${2:-1}"
seconds="${3:-30}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/target/profile"
mkdir -p "$work"

RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=1 CARGO_TARGET_DIR="$work" \
    cargo build --release --offline --locked --manifest-path "$root/benchmark/Cargo.toml" >&2
bin="$work/release/metabench"

cat >"$work/sampler.c" <<'C'
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { MAX_DEPTH = 128 };
static int out_fd = -1;

/* One record per sample: word count, then the addresses, innermost first. */
static void on_prof(int sig, siginfo_t *info, void *uc_) {
    (void)sig, (void)info;
    int saved = errno;
    ucontext_t *uc = uc_;
    uint64_t rec[MAX_DEPTH + 2];
    uint64_t ip = uc->uc_mcontext.gregs[REG_RIP];
    uint64_t sp = uc->uc_mcontext.gregs[REG_RSP];
    uint64_t fp = uc->uc_mcontext.gregs[REG_RBP];
    size_t n = 1;
    rec[n++] = ip;
    rec[n++] = *(uint64_t *)sp; /* the caller, if `ip` is a frameless leaf */
    /* Frames live above the stack pointer, grow upward, and are aligned. */
    while (n < MAX_DEPTH + 2 && fp > sp && fp - sp < (64u << 20) && !(fp & 7)) {
        uint64_t next = ((uint64_t *)fp)[0], ret = ((uint64_t *)fp)[1];
        if (!ret) break;
        rec[n++] = ret;
        if (next <= fp) break;
        fp = next;
    }
    rec[0] = n - 1;
    if (write(out_fd, rec, n * sizeof rec[0]) < 0) { /* nothing to do in a handler */ }
    errno = saved;
}

__attribute__((constructor)) static void start(void) {
    const char *path = getenv("PROFILE_SAMPLES");
    if (!path) return;
    char maps[4096];
    snprintf(maps, sizeof maps, "%s.maps", path);
    int in = open("/proc/self/maps", O_RDONLY), copy = open(maps, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    char buf[65536];
    ssize_t got;
    while (in >= 0 && copy >= 0 && (got = read(in, buf, sizeof buf)) > 0)
        if (write(copy, buf, got) != got) break;
    close(in), close(copy);
    out_fd = open(path, O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}
C
cc -O2 -shared -fPIC -o "$work/sampler.so" "$work/sampler.c"

samples="$work/$workload-$seed.samples"
LD_PRELOAD="$work/sampler.so" PROFILE_SAMPLES="$samples" \
    "$bin" --out "$work/out" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    | tail -n 1 >&2

exec python3 - "$bin" "$samples" "$workload" "$seed" "$seconds" <<'PY'
import collections, os, re, struct, subprocess, sys

binary, samples_path, workload, seed, seconds = sys.argv[1:]
binary = os.path.realpath(binary)

# Mappings at start-up: the binary's load base is its first mapping.
ranges, base = [], None
for line in open(samples_path + ".maps"):
    fields = line.split()
    if len(fields) < 6:
        continue
    lo, hi = (int(x, 16) for x in fields[0].split("-"))
    ranges.append((lo, hi, fields[5]))
    if base is None and fields[5] == binary:
        base = lo

def mapping(addr):
    for lo, hi, path in ranges:
        if lo <= addr < hi:
            return path
    return None

raw = open(samples_path, "rb").read()
words = struct.unpack(f"<{len(raw) // 8}Q", raw)
stacks, i = [], 0
while i < len(words):
    n = words[i]
    ip, caller, *chain = words[i + 1 : i + 1 + n]
    i += 1 + n
    # A leaf outside the binary has no frame of its own: its caller is the
    # word at the stack pointer. Return addresses are looked up one byte
    # back, inside the call instruction.
    frames = [ip] + ([caller - 1] if mapping(ip) != binary else []) + [r - 1 for r in chain]
    stacks.append(frames)

# Every in-binary address once through addr2line; each resolves to its
# inline chain, innermost first.
wanted = sorted({a for s in stacks for a in s if mapping(a) == binary})
out = subprocess.run(
    ["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
    input="\n".join(f"{a - base:#x}" for a in wanted), capture_output=True, text=True, check=True,
).stdout.splitlines()
# Per address: the address line, then (function, file:line) pairs.
hash_suffix = re.compile(r"::h[0-9a-f]{16}$")
names, addr_iter, j = {}, iter(wanted), 0
while j < len(out):
    current = names.setdefault(next(addr_iter), [])
    j += 1
    while j + 1 < len(out) and not out[j].startswith("0x"):
        current.append(hash_suffix.sub("", out[j]))
        j += 2

def chain(addr, leaf):
    path = mapping(addr)
    if path == binary:
        return names.get(addr) or ["??"]
    # Outside the binary only the leaf is named (by its library): the frames
    # above `main` and unwalkable library frames are not worth a row.
    return [f"[{os.path.basename(path) if path else 'unknown'}]"] if leaf else []

self_counts, incl_counts = collections.Counter(), collections.Counter()
for frames in stacks:
    resolved = [name for k, a in enumerate(frames) for name in chain(a, k == 0)]
    # Frames from `main` outward are in every sample.
    if "metabench::main" in resolved:
        resolved = resolved[: resolved.index("metabench::main")]
    self_counts[resolved[0]] += 1
    for name in set(resolved):
        incl_counts[name] += 1

total = len(stacks)
print(f"{workload}, seed {seed}, {seconds} s: {total} samples")
for title, counts in (("self", self_counts), ("inclusive", incl_counts)):
    print(f"\n{title:>9}  function")
    for name, count in counts.most_common(40):
        print(f"{100 * count / total:8.1f}%  {name[:150]}")
PY
