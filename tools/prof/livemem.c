/* LD_PRELOAD live-heap census: interposes malloc/calloc/realloc/free and
 * posix_memalign/aligned_alloc/memalign, and keeps, per call site (the
 * DEPTH return addresses above the allocator entry, walked by frame
 * pointer), the bytes and blocks allocated there and not yet freed.
 *
 * Two modes, both writing $LIVEMEM_OUT on exit: the first /proc/self/maps
 * line (the load base), a `# ...` line, then one `bytes blocks addr...`
 * line per call site, innermost address first.
 *
 *   default         the sites as they stood at the process's peak of live
 *                   bytes (a snapshot is taken whenever the live total
 *                   passes the last one by 1/64, so the peak is caught to
 *                   within ~1.6 %); the `#` line gives the peak and the
 *                   allocation index it was reached at.
 *   LIVEMEM_AT=N    every block live just after allocation N (0-based, as
 *                   counted here), one `bytes 1 addr...` line each, then
 *                   exit: run the same deterministic command again with
 *                   the default mode's index to see exactly what the peak
 *                   holds.
 *
 * The walk follows %rbp, so build what you measure with
 * RUSTFLAGS="-C force-frame-pointers=yes". A function built without frame
 * pointers (the prebuilt std's) does not show: the walk sees past it to
 * the nearest caller that keeps one, and stops at any frame pointer that
 * does not climb the stack. A free of a block the census never
 * saw is ignored; blocks it could not file (a full table) are counted on
 * the `#` line. Threads share one spin lock.
 * Symbolise with `sym.py ... live`.
 * Build: gcc -O2 -shared -fPIC -fno-omit-frame-pointer -o livemem.so livemem.c */
#define _GNU_SOURCE
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

extern void *__libc_malloc(size_t), *__libc_calloc(size_t, size_t),
    *__libc_realloc(void *, size_t), *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

#define DEPTH 6
#define SITES (1 << 15)
#define BLOCKS (1 << 21) /* live blocks tracked at once */

static struct site {
    uintptr_t stack[DEPTH];
    long bytes, blocks;       /* live now */
    long peak_bytes, peak_blocks; /* live at the last snapshot */
} sites[SITES];

/* Open addressing on the block's address; `site < 0` marks a tombstone. */
static struct block {
    uintptr_t ptr;
    size_t size;
    int site;
} blocks[BLOCKS];

static atomic_flag lock = ATOMIC_FLAG_INIT;
static __thread int busy; /* stdio allocates too */
static long live, peak, snapshot;
static unsigned long allocs, peak_at, dump_at = (unsigned long)-1, lost;

static void acquire(void) { while (atomic_flag_test_and_set_explicit(&lock, memory_order_acquire)) {} }
static void release(void) { atomic_flag_clear_explicit(&lock, memory_order_release); }

static void dump(void);

/* The caller's return addresses above the interposer, by frame pointer. */
__attribute__((noinline)) static void walk(uintptr_t *out) {
    uintptr_t *fp = *(uintptr_t **)__builtin_frame_address(0); /* the interposer's */
    memset(out, 0, DEPTH * sizeof *out);
    for (int d = 0; d < DEPTH && fp; d++) {
        uintptr_t *next = (uintptr_t *)fp[0];
        out[d] = fp[1];
        if (next <= fp || (uintptr_t)next - (uintptr_t)fp > (1 << 20) || ((uintptr_t)next & 7)) break;
        fp = next;
    }
}

static int site_of(const uintptr_t *stack) {
    uint64_t h = 1469598103934665603ull;
    for (int i = 0; i < DEPTH; i++) h = (h ^ stack[i]) * 1099511628211ull;
    for (unsigned long i = h, tries = 0; tries < SITES; i++, tries++) {
        struct site *s = &sites[i % SITES];
        if (s->stack[0] && memcmp(s->stack, stack, sizeof s->stack)) continue;
        if (!s->stack[0]) memcpy(s->stack, stack, sizeof s->stack);
        return (int)(i % SITES);
    }
    return -1;
}

static unsigned long slot_of(uintptr_t p) { return (p >> 4) * 11400714819323198485ull >> 43; }

static void track(void *p, size_t size, const uintptr_t *stack) {
    if (!p) return;
    unsigned long index = allocs++;
    int s = site_of(stack);
    if (s < 0) {
        lost++;
        return;
    }
    for (unsigned long i = slot_of((uintptr_t)p), tries = 0; tries < BLOCKS; i++, tries++) {
        struct block *b = &blocks[i % BLOCKS];
        if (b->ptr && b->site >= 0) continue;
        *b = (struct block){(uintptr_t)p, size, s};
        sites[s].bytes += size, sites[s].blocks++;
        live += size;
        if (live > peak) peak = live, peak_at = allocs - 1;
        if (dump_at == (unsigned long)-1 && live > snapshot + snapshot / 64) {
            snapshot = live;
            for (int j = 0; j < SITES; j++)
                sites[j].peak_bytes = sites[j].bytes, sites[j].peak_blocks = sites[j].blocks;
        }
        if (index == dump_at) dump();
        return;
    }
    lost++;
}

static void untrack(void *p) {
    if (!p) return;
    for (unsigned long i = slot_of((uintptr_t)p), tries = 0; tries < BLOCKS; i++, tries++) {
        struct block *b = &blocks[i % BLOCKS];
        if (!b->ptr) return;
        if (b->ptr != (uintptr_t)p || b->site < 0) continue;
        sites[b->site].bytes -= b->size, sites[b->site].blocks--;
        live -= b->size;
        b->site = -1;
        return;
    }
}

#define INTERPOSE(call, size, before)            \
    uintptr_t stack[DEPTH];                      \
    if (busy) return call;                       \
    walk(stack);                                 \
    acquire();                                   \
    busy = 1;                                    \
    before;                                      \
    void *p = call;                              \
    track(p, size, stack);                       \
    busy = 0;                                    \
    release();                                   \
    return p;

void *malloc(size_t n) { INTERPOSE(__libc_malloc(n), n, ) }
void *calloc(size_t k, size_t n) { INTERPOSE(__libc_calloc(k, n), k * n, ) }
void *realloc(void *q, size_t n) { INTERPOSE(__libc_realloc(q, n), n, untrack(q)) }
void *memalign(size_t a, size_t n) { INTERPOSE(__libc_memalign(a, n), n, ) }
void *aligned_alloc(size_t a, size_t n) { INTERPOSE(__libc_memalign(a, n), n, ) }
int posix_memalign(void **out, size_t a, size_t n) {
    *out = memalign(a, n);
    return *out ? 0 : 12 /* ENOMEM */;
}
void free(void *p) {
    if (!busy) {
        acquire();
        untrack(p);
        release();
    }
    __libc_free(p);
}

static void write_out(int at_peak) {
    const char *path = getenv("LIVEMEM_OUT");
    char maps[512] = "";
    FILE *in = fopen("/proc/self/maps", "r"), *out = path ? fopen(path, "w") : NULL;
    if (in && fgets(maps, sizeof maps, in) && out) {
        fputs(maps, out);
        if (at_peak) {
            fprintf(out, "# peak %ld bytes at allocation %lu of %lu (snapshot %ld; %lu blocks untracked)\n",
                    peak, peak_at, allocs, snapshot, lost);
            for (int i = 0; i < SITES; i++) {
                if (sites[i].peak_bytes <= 0) continue;
                fprintf(out, "%ld %ld", sites[i].peak_bytes, sites[i].peak_blocks);
                for (int d = 0; d < DEPTH && sites[i].stack[d]; d++) fprintf(out, " %lx", sites[i].stack[d]);
                fputc('\n', out);
            }
        } else {
            fprintf(out, "# %ld bytes live after allocation %lu\n", live, dump_at);
            for (unsigned long i = 0; i < BLOCKS; i++) {
                struct block *b = &blocks[i];
                if (!b->ptr || b->site < 0) continue;
                fprintf(out, "%zu 1", b->size);
                for (int d = 0; d < DEPTH && sites[b->site].stack[d]; d++)
                    fprintf(out, " %lx", sites[b->site].stack[d]);
                fputc('\n', out);
            }
        }
    }
    if (in) fclose(in);
    if (out) fclose(out);
}

/* LIVEMEM_AT reached: write the live blocks and stop (the lock is held). */
static void dump(void) {
    write_out(0);
    _exit(0);
}

__attribute__((constructor)) static void start(void) {
    const char *at = getenv("LIVEMEM_AT");
    if (at) dump_at = strtoul(at, NULL, 10);
}

__attribute__((destructor)) static void stop(void) {
    acquire();
    busy = 1;
    if (dump_at == (unsigned long)-1) write_out(1);
    release();
}
