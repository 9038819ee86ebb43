/* SIGPROF instruction-pointer sampler, preloaded into an unmodified binary.
 *
 *   gcc -O2 -shared -fPIC -o sampler.so sampler.c
 *   SAMPLER_OUT=/tmp/prof LD_PRELOAD=./sampler.so <program> <args>
 *
 * The constructor arms ITIMER_PROF (1 kHz of process CPU time asked for; the
 * kernel caps it at its own tick), the handler stores the interrupted RIP
 * into a preallocated array — nothing else is async-signal-safe enough to do
 * there — and the destructor writes /proc/self/maps followed by one hex
 * address per line to $SAMPLER_OUT.<pid>, which resolve.py reads. x86-64
 * Linux only. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 22)
static unsigned long long samples[MAX_SAMPLES];
static volatile size_t count;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    size_t i = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void arm(void) {
    if (!getenv("SAMPLER_OUT")) return;
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tick = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &tick, NULL);
}

__attribute__((destructor)) static void dump(void) {
    const char *out = getenv("SAMPLER_OUT");
    if (!out) return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", out, (int)getpid());
    FILE *f = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!f || !maps) return;
    for (int c; (c = fgetc(maps)) != EOF;) fputc(c, f);
    fputs("--samples--\n", f);
    size_t n = count < MAX_SAMPLES ? count : MAX_SAMPLES;
    for (size_t i = 0; i < n; i++) fprintf(f, "%llx\n", samples[i]);
    fclose(f);
}
