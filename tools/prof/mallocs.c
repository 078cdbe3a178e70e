/* LD_PRELOAD allocation counter: interposes malloc/calloc/realloc and
 * counts calls and bytes per call stack (up to DEPTH return addresses above
 * the allocator entry). On exit writes the first /proc/self/maps line (the
 * load base) and one `count bytes addr...` line per call site, innermost
 * address first, to $MALLOCS_OUT. For single-threaded programs: the table
 * is updated without locks. Symbolise with `sym.py ... allocs`.
 * Build: gcc -O2 -shared -fPIC -o mallocs.so mallocs.c */
#define _GNU_SOURCE
#include <execinfo.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

extern void *__libc_malloc(size_t), *__libc_calloc(size_t, size_t), *__libc_realloc(void *, size_t);

#define DEPTH 10
#define SLOTS (1 << 16)
static struct site {
    void *stack[DEPTH];
    unsigned long count, bytes;
} table[SLOTS];
static __thread int busy; /* backtrace() and stdio allocate too */

static void note(size_t bytes) {
    void *raw[DEPTH + 2] = {0}; /* raw[0] is note, raw[1] the interposer */
    unsigned long h = 1469598103934665603ul;
    if (busy) return;
    busy = 1;
    backtrace(raw, DEPTH + 2);
    for (int i = 2; i < DEPTH + 2; i++) h = (h ^ (unsigned long)raw[i]) * 1099511628211ul;
    for (unsigned long i = h, tries = 0; tries < SLOTS; i++, tries++) {
        struct site *s = &table[i % SLOTS];
        if (s->count && memcmp(s->stack, raw + 2, sizeof s->stack)) continue;
        memcpy(s->stack, raw + 2, sizeof s->stack);
        s->count++, s->bytes += bytes;
        break;
    }
    busy = 0;
}

void *malloc(size_t n) { note(n); return __libc_malloc(n); }
void *calloc(size_t k, size_t n) { note(k * n); return __libc_calloc(k, n); }
void *realloc(void *p, size_t n) { note(n); return __libc_realloc(p, n); }

__attribute__((destructor)) static void dump(void) {
    const char *path = getenv("MALLOCS_OUT");
    char maps[512] = "";
    busy = 1;
    FILE *in = fopen("/proc/self/maps", "r"), *out = path ? fopen(path, "w") : NULL;
    if (in && fgets(maps, sizeof maps, in) && out) {
        fputs(maps, out);
        for (int i = 0; i < SLOTS; i++) {
            if (!table[i].count) continue;
            fprintf(out, "%lu %lu", table[i].count, table[i].bytes);
            for (int d = 0; d < DEPTH && table[i].stack[d]; d++)
                fprintf(out, " %lx", (unsigned long)table[i].stack[d]);
            fputc('\n', out);
        }
    }
    if (in) fclose(in);
    if (out) fclose(out);
}
