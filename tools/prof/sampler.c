/* LD_PRELOAD sampling profiler: SIGPROF every 1 ms of CPU time.
 *
 * By default each sample is the interrupted instruction pointer. With
 * SAMPLER_STACK=1 each sample is also the chain of return addresses above
 * it, walked by frame pointer (up to DEPTH frames), so `sym.py … incl`
 * can give each function's inclusive share: the samples in it or in
 * anything it called. The walk follows %rbp, so build what you measure
 * with RUSTFLAGS="-C force-frame-pointers=yes"; a function built without
 * frame pointers (the prebuilt std's, libc's) does not show, and the walk
 * sees past it only where its %rbp still holds its caller's frame. The
 * walk stays inside the main thread's stack (taken at load time): a
 * sample on another thread, or one whose %rbp points elsewhere, keeps its
 * instruction pointer only.
 *
 * On exit writes the first /proc/self/maps line (the load base), then one
 * sample per line to $SAMPLER_OUT: the instruction pointer, then (stack
 * mode) the return addresses, innermost first, space separated.
 * Build: gcc -O2 -shared -fPIC -o sampler.so sampler.c */
#define _GNU_SOURCE
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_WORDS (1 << 22) /* one word per sample, plus the stack mode's frames */
#define DEPTH 64

/* Each sample: its frame count n, then n addresses (the ip first). */
static uintptr_t words[MAX_WORDS];
static unsigned long used; /* words written; threads reserve atomically */
static int stack_mode;
static uintptr_t stack_lo, stack_hi; /* the main thread's stack */

static void on_prof(int sig, siginfo_t *info, void *ucv) {
    (void)sig, (void)info;
    ucontext_t *uc = ucv;
    uintptr_t frames[DEPTH], n = 0;
    frames[n++] = uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t sp = uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
    if (stack_mode && sp >= stack_lo && sp < stack_hi) {
        /* A frame is [saved %rbp, return address]; each caller's frame
         * sits above its callee's, inside the stack. */
        while (n < DEPTH && fp >= sp && fp + 16 <= stack_hi && !(fp & 7)) {
            uintptr_t next = ((uintptr_t *)fp)[0];
            frames[n++] = ((uintptr_t *)fp)[1];
            if (next <= fp)
                break;
            fp = next;
        }
    }
    unsigned long at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > MAX_WORDS) {
        __atomic_store_n(&used, MAX_WORDS, __ATOMIC_RELAXED); /* full: stop */
        return;
    }
    words[at] = n;
    for (uintptr_t i = 0; i < n; i++)
        words[at + 1 + i] = frames[i];
}

__attribute__((constructor)) static void start(void) {
    const char *mode = getenv("SAMPLER_STACK");
    pthread_attr_t attr;
    void *lo;
    size_t size;
    stack_mode = mode && *mode && *mode != '0';
    if (stack_mode && pthread_getattr_np(pthread_self(), &attr) == 0) {
        if (pthread_attr_getstack(&attr, &lo, &size) == 0) {
            stack_lo = (uintptr_t)lo;
            stack_hi = stack_lo + size;
        }
        pthread_attr_destroy(&attr);
    }
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    struct itimerval every = {{0, 1000}, {0, 1000}};
    sigaction(SIGPROF, &sa, NULL);
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    const char *path = getenv("SAMPLER_OUT");
    char maps[512] = "";
    FILE *in = fopen("/proc/self/maps", "r"), *out = path ? fopen(path, "w") : NULL;
    setitimer(ITIMER_PROF, &off, NULL);
    if (in && fgets(maps, sizeof maps, in) && out) {
        fputs(maps, out);
        for (unsigned long i = 0; i < used && words[i]; i += 1 + words[i]) {
            for (uintptr_t j = 1; j <= words[i]; j++)
                fprintf(out, j == 1 ? "%lx" : " %lx", (unsigned long)words[i + j]);
            fputc('\n', out);
        }
    }
    if (in) fclose(in);
    if (out) fclose(out);
}
