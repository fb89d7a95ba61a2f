#!/usr/bin/env bash
# Live heap at its peak for one benchmark workload, by owner, on hosts
# without heaptrack or valgrind.
#
#   scripts/heap.sh <workload> [seed] [seconds]
#
# Builds benchmark/ with frame pointers and line tables into target/profile
# (the build scripts/profile.sh uses; benchmark/ and its Cargo.lock are left
# as they are), compiles a malloc/calloc/realloc/posix_memalign/free recorder
# with the system cc, runs `metabench --trace 0` with it preloaded, and
# prints the bytes live at the moment the live total peaked, grouped by the
# first two frames of each allocation's call stack that are not in std,
# core or alloc. Bytes are as requested, without the allocator's own
# overhead, so the peak reads below the benchmark's `peak_rss_mb`. `seconds`
# (default 1) is metabench's timing budget: every pass builds and runs the
# whole session, so one timed pass after the counted one is enough.
#
# A second table counts the allocator calls (malloc, calloc, realloc,
# posix_memalign) each owner made over the whole run, set-up and every pass
# included, grouped the same way: where the benchmark's `allocs_per_sim_s`
# comes from, though its count covers only the timed windows.
#
# Under the tables it lists glibc's malloc arenas at exit (`malloc_stats()`):
# the bytes each took from the system and the bytes in use in it. Live bytes
# cannot show memory an arena keeps after its blocks are freed, such as the
# arena of a worker thread that exited; the system bytes can, and the RSS
# follows them.
# Needs glibc, cc, addr2line and python3.
set -euo pipefail

usage="usage: scripts/heap.sh <workload> [seed] [seconds]"
workload="${1:?$usage}"
seed="${2:-1}"
seconds="${3:-1}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/target/profile"
mkdir -p "$work"

RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=1 CARGO_TARGET_DIR="$work" \
    cargo build --release --offline --locked --manifest-path "$root/benchmark/Cargo.toml" >&2
bin="$work/release/metabench"

cat >"$work/heaprec.c" <<'C'
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <malloc.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

/* glibc's own entry points: calling them never re-enters the wrappers. */
extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

enum { DEPTH = 24, MAX_STACKS = 1 << 17 };

/* Every table lives in mmap'd memory, so bookkeeping never calls malloc. */
typedef struct { uintptr_t ptr; uint64_t size; uint32_t stack; } Block;
typedef struct { uint64_t hash; uint32_t id; } StackSlot;

static Block *blocks;            /* open addressing, linear probing */
static size_t block_cap, block_len;
static StackSlot *stack_slots;   /* stack hash -> id, 2 * MAX_STACKS slots */
static uintptr_t (*frames)[DEPTH];
static uint32_t stack_len = 1;   /* id 0: stacks past MAX_STACKS */
/* Allocator calls per stack over the whole run. */
static int64_t *calls;
/* Live bytes and blocks per stack now, and as they stood at the peak; a
 * stack's entry is copied into the peak columns only if it changed since
 * the last peak, so a new peak costs what changed, not every stack. */
static int64_t *live, *live_n, *at_peak, *at_peak_n;
static uint32_t *dirty;
static uint8_t *is_dirty;
static uint32_t dirty_len;
static int64_t total, peak;
static volatile int lock_word;
static int ready;

static void *map(size_t bytes) {
    void *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    return p == MAP_FAILED ? NULL : p;
}

static void lock(void) { while (__sync_lock_test_and_set(&lock_word, 1)) {} }
static void unlock(void) { __sync_lock_release(&lock_word); }

static size_t slot_of(uintptr_t p, size_t cap) { return (size_t)((p >> 4) * 0x9E3779B97F4A7C15ull) & (cap - 1); }

static void block_put(uintptr_t p, uint64_t size, uint32_t stack) {
    if (2 * (block_len + 1) > block_cap) {
        size_t cap = block_cap ? 2 * block_cap : 1 << 16;
        Block *grown = map(cap * sizeof(Block));
        if (!grown) return;
        for (size_t i = 0; i < block_cap; i++)
            if (blocks[i].ptr) {
                size_t j = slot_of(blocks[i].ptr, cap);
                while (grown[j].ptr) j = (j + 1) & (cap - 1);
                grown[j] = blocks[i];
            }
        if (blocks) munmap(blocks, block_cap * sizeof(Block));
        blocks = grown, block_cap = cap;
    }
    size_t i = slot_of(p, block_cap);
    while (blocks[i].ptr) i = (i + 1) & (block_cap - 1);
    blocks[i] = (Block){p, size, stack};
    block_len++;
}

/* Removes `p` (backward-shift deletion); returns 0 if it was not recorded. */
static int block_take(uintptr_t p, Block *out) {
    if (!block_cap) return 0;
    size_t i = slot_of(p, block_cap);
    while (blocks[i].ptr != p) {
        if (!blocks[i].ptr) return 0;
        i = (i + 1) & (block_cap - 1);
    }
    *out = blocks[i];
    for (size_t j = (i + 1) & (block_cap - 1); blocks[j].ptr; j = (j + 1) & (block_cap - 1)) {
        size_t home = slot_of(blocks[j].ptr, block_cap);
        /* Move j back into the hole at i unless its home lies in (i, j]. */
        if ((j > i && (home <= i || home > j)) || (j < i && home <= i && home > j)) {
            blocks[i] = blocks[j];
            i = j;
        }
    }
    blocks[i].ptr = 0;
    block_len--;
    return 1;
}

/* The frame-pointer chain above the wrapper, deduplicated to an id. */
static uint32_t stack_id(void) {
    uintptr_t pcs[DEPTH] = {0};
    uintptr_t *fp = __builtin_frame_address(0);
    uintptr_t lo = (uintptr_t)fp;
    uint64_t hash = 1469598103934665603ull;
    for (int n = 0; n < DEPTH && fp && !((uintptr_t)fp & 7); n++) {
        uintptr_t ret = fp[1], *next = (uintptr_t *)fp[0];
        if (!ret) break;
        pcs[n] = ret;
        hash = (hash ^ ret) * 1099511628211ull;
        if ((uintptr_t)next <= (uintptr_t)fp || (uintptr_t)next - lo > (64u << 20)) break;
        fp = next;
    }
    hash |= 1;
    size_t cap = 2 * MAX_STACKS, i = (size_t)(hash * 0x9E3779B97F4A7C15ull) & (cap - 1);
    while (stack_slots[i].hash && stack_slots[i].hash != hash) i = (i + 1) & (cap - 1);
    if (!stack_slots[i].hash) {
        if (stack_len == MAX_STACKS) return 0;
        stack_slots[i] = (StackSlot){hash, stack_len};
        memcpy(frames[stack_len], pcs, sizeof pcs);
        stack_len++;
    }
    return stack_slots[i].id;
}

static void touch(uint32_t s, int64_t bytes, int64_t n) {
    live[s] += bytes, live_n[s] += n, total += bytes;
    if (!is_dirty[s]) is_dirty[s] = 1, dirty[dirty_len++] = s;
    if (total > peak) {
        peak = total;
        for (uint32_t k = 0; k < dirty_len; k++) {
            uint32_t d = dirty[k];
            at_peak[d] = live[d], at_peak_n[d] = live_n[d], is_dirty[d] = 0;
        }
        dirty_len = 0;
    }
}

static void record_alloc(void *p, size_t size) {
    if (!p || !ready) return;
    lock();
    uint32_t s = stack_id();
    calls[s]++;
    block_put((uintptr_t)p, size, s);
    touch(s, (int64_t)size, 1);
    unlock();
}

static void record_free(void *p) {
    if (!p || !ready) return;
    lock();
    Block b;
    if (block_take((uintptr_t)p, &b)) touch(b.stack, -(int64_t)b.size, -1);
    unlock();
}

void *malloc(size_t n) { void *p = __libc_malloc(n); record_alloc(p, n); return p; }
void *calloc(size_t k, size_t n) { void *p = __libc_calloc(k, n); record_alloc(p, k * n); return p; }
void free(void *p) { record_free(p); __libc_free(p); }

void *realloc(void *old, size_t n) {
    void *p = __libc_realloc(old, n);
    if (p || !n) {
        record_free(old);
        record_alloc(p, n);
    }
    return p;
}

int posix_memalign(void **out, size_t align, size_t n) {
    if (align % sizeof(void *) || (align & (align - 1))) return EINVAL;
    void *p = __libc_memalign(align, n);
    if (!p) return ENOMEM;
    record_alloc(p, n);
    *out = p;
    return 0;
}

__attribute__((constructor)) static void start(void) {
    if (!getenv("HEAP_REPORT")) return;
    stack_slots = map(2 * MAX_STACKS * sizeof(StackSlot));
    frames = map(MAX_STACKS * sizeof *frames);
    live = map(MAX_STACKS * sizeof(int64_t)), live_n = map(MAX_STACKS * sizeof(int64_t));
    at_peak = map(MAX_STACKS * sizeof(int64_t)), at_peak_n = map(MAX_STACKS * sizeof(int64_t));
    dirty = map(MAX_STACKS * sizeof(uint32_t)), is_dirty = map(MAX_STACKS);
    calls = map(MAX_STACKS * sizeof(int64_t));
    ready = stack_slots && frames && live && live_n && at_peak && at_peak_n && dirty && is_dirty && calls;
}

/* Peak, mappings, then one line per stack that allocated: bytes and
 * blocks live at the peak, calls over the run, return addresses innermost
 * first; last, glibc's
 * malloc_stats() report, which it prints to stderr. */
__attribute__((destructor)) static void finish(void) {
    const char *path = getenv("HEAP_REPORT");
    if (!path || !ready) return;
    lock();
    ready = 0;
    int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    char line[4096];
    int len = snprintf(line, sizeof line, "peak %lld\n", (long long)peak);
    if (write(fd, line, len) != len) goto done;
    int in = open("/proc/self/maps", O_RDONLY);
    ssize_t got;
    while (in >= 0 && (got = read(in, line, sizeof line)) > 0)
        if (write(fd, line, got) != got) break;
    close(in);
    for (uint32_t s = 0; s < stack_len; s++) {
        if (at_peak[s] <= 0 && !calls[s]) continue;
        len = snprintf(line, sizeof line, "stack %lld %lld %lld", (long long)at_peak[s],
                       (long long)at_peak_n[s], (long long)calls[s]);
        for (int k = 0; k < DEPTH && frames[s][k]; k++)
            len += snprintf(line + len, sizeof line - len, " %lx", (unsigned long)frames[s][k]);
        line[len++] = '\n';
        if (write(fd, line, len) != len) break;
    }
    int saved = dup(2);
    if (saved >= 0 && dup2(fd, 2) >= 0) {
        malloc_stats();
        fflush(stderr);
        dup2(saved, 2);
    }
    if (saved >= 0) close(saved);
done:
    close(fd);
    unlock();
}
C
cc -O2 -fno-omit-frame-pointer -shared -fPIC -o "$work/heaprec.so" "$work/heaprec.c"

report="$work/$workload-$seed.heap"
LD_PRELOAD="$work/heaprec.so" HEAP_REPORT="$report" \
    "$bin" --out "$work/out" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    | tail -n 1 >&2

exec python3 - "$bin" "$report" "$workload" "$seed" <<'PY'
import collections, os, re, subprocess, sys

binary, report, workload, seed = sys.argv[1:]
binary = os.path.realpath(binary)

peak, ranges, stacks = 0, [], []
# malloc_stats() lines: "Arena N:" or "Total (incl. mmap):", then
# "system bytes = B" and "in use bytes = B" for it.
arenas, arena = {}, None
for line in open(report):
    fields = line.split()
    if not fields:
        continue
    if fields[0] == "peak":
        peak = int(fields[1])
    elif fields[0] == "stack":
        stacks.append((*map(int, fields[1:4]), [int(a, 16) for a in fields[4:]]))
    elif fields[0] in ("Arena", "Total"):
        arena = "total" if fields[0] == "Total" else int(fields[1].rstrip(":"))
        arenas[arena] = {}
    elif arena is not None and line.startswith(("system bytes", "in use bytes")):
        arenas[arena][fields[0]] = int(fields[-1])
    elif len(fields) >= 6:
        lo, hi = (int(x, 16) for x in fields[0].split("-"))
        ranges.append((lo, hi, fields[5]))
base = min(lo for lo, _, path in ranges if path == binary)

def in_binary(addr):
    return any(lo <= addr < hi and path == binary for lo, hi, path in ranges)

# Every in-binary return address once through addr2line, looked up one byte
# back (inside the call); each resolves to its inline chain, innermost first.
wanted = sorted({a - 1 for *_, pcs in stacks for a in pcs if in_binary(a)})
out = subprocess.run(
    ["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
    input="\n".join(f"{a - base:#x}" for a in wanted), capture_output=True, text=True, check=True,
).stdout.splitlines()
hash_suffix = re.compile(r"::h[0-9a-f]{16}$")
names, addr_iter, j = {}, iter(wanted), 0
while j < len(out):
    current = names.setdefault(next(addr_iter), [])
    j += 1
    while j + 1 < len(out) and not out[j].startswith("0x"):
        current.append(hash_suffix.sub("", out[j]))
        j += 2

library = re.compile(r"^<?(std|core|alloc|hashbrown)::|^<T as |^__rus?t|^__rdl|^\?\?$")
owners, blocks, calls = collections.Counter(), collections.Counter(), collections.Counter()
for size, count, made, pcs in stacks:
    resolved = [n for a in pcs if in_binary(a) for n in names.get(a - 1, ["??"])]
    if "metabench::main" in resolved:
        resolved = resolved[: resolved.index("metabench::main")]
    own = [n for n in resolved if not library.search(n)][:2]
    key = "  <-  ".join(own) if own else "(std only)"
    owners[key] += max(size, 0)
    blocks[key] += max(count, 0)
    calls[key] += made

live = sum(1 for size, *_ in stacks if size > 0)
print(f"{workload}, seed {seed}: {peak / 1e6:.2f} MB live at the peak, {live} stacks")
print(f"\n{'MB':>7} {'share':>6} {'blocks':>8}  owner  <-  its caller")
for key, size in owners.most_common(30):
    if size > 0:
        print(f"{size / 1e6:7.2f} {100 * size / peak:5.1f}% {blocks[key]:8d}  {key[:160]}")

total = sum(calls.values())
print(f"\nallocator calls over the whole run: {total}, {len(stacks)} stacks")
print(f"{'calls':>10} {'share':>6}  owner  <-  its caller")
for key, made in calls.most_common(30):
    print(f"{made:10d} {100 * made / max(total, 1):5.1f}%  {key[:160]}")

if arenas:
    # Arena 0 is the main thread's; every other one was made for a thread
    # that found no free arena when it first allocated.
    workers = [a for a in arenas if a not in (0, "total")]
    print(f"\nmalloc arenas at exit (glibc malloc_stats): {len(workers)} besides the main one")
    print(f"{'system MB':>10} {'in use MB':>10}  arena")
    for a in sorted(workers, key=int) + [0, "total"]:
        if a in arenas:
            stats = arenas[a]
            label = {0: "0 (main)", "total": "total, with mmap'd blocks"}.get(a, str(a))
            print(f"{stats.get('system', 0) / 1e6:10.2f} {stats.get('in', 0) / 1e6:10.2f}  {label}")
PY
