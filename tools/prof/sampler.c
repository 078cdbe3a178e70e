/* LD_PRELOAD sampling profiler: SIGPROF every 1 ms of CPU time, each
 * sample the interrupted instruction pointer. On exit writes the first
 * /proc/self/maps line (the load base) and one address per line to
 * $SAMPLER_OUT. Build: gcc -O2 -shared -fPIC -o sampler.so sampler.c */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long samples[MAX_SAMPLES];
static volatile unsigned long count;

static void on_prof(int sig, siginfo_t *info, void *uc) {
    (void)sig, (void)info;
    if (count < MAX_SAMPLES)
        samples[count++] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
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
        for (unsigned long i = 0; i < count; i++)
            fprintf(out, "%lx\n", samples[i]);
    }
    if (in) fclose(in);
    if (out) fclose(out);
}
