/* SIGPROF instruction-pointer sampler, preloaded into an unmodified binary.
 *
 *   gcc -O2 -shared -fPIC -o sampler.so sampler.c
 *   SAMPLER_OUT=/tmp/prof LD_PRELOAD=./sampler.so <program> <args>
 *
 * The constructor finds the executable's r-xp mapping and arms ITIMER_PROF
 * (1 kHz of process CPU time asked for; the kernel caps it at its own tick).
 * The handler stores the interrupted RIP into a preallocated array — nothing
 * else is async-signal-safe enough to do there — and, when that RIP is
 * outside the executable (libc, the vdso), the first of the next
 * STACK_WORDS words at RSP that points into the executable's code: most
 * often the return address into the caller, so a shared-library sample can
 * be charged to the function that called it. The destructor writes
 * /proc/self/maps followed by one sample per line to $SAMPLER_OUT.<pid>,
 * which resolve.py reads: the hex RIP, then the hex caller word if one was
 * found. x86-64 Linux only. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 22)
/* Stack words scanned for a caller. A thread's stack mapping carries its
 * thread descriptor and TLS above the top frame, so 512 bytes above RSP are
 * mapped. */
#define STACK_WORDS 64
static unsigned long long samples[MAX_SAMPLES], callers[MAX_SAMPLES];
static unsigned long long exe_lo, exe_hi; /* the executable's r-xp mapping */
static volatile size_t count;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    size_t i = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES) return;
    const greg_t *regs = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    unsigned long long rip = regs[REG_RIP];
    samples[i] = rip;
    if (rip >= exe_lo && rip < exe_hi) return;
    const unsigned long long *sp = (const unsigned long long *)regs[REG_RSP];
    for (int k = 0; k < STACK_WORDS; k++)
        if (sp[k] >= exe_lo && sp[k] < exe_hi) {
            callers[i] = sp[k];
            return;
        }
}

/* Sets exe_lo/exe_hi to the executable's r-xp mapping (left 0 if not found:
 * then no caller is ever recorded). */
static void find_exe_code(void) {
    char exe[4096], line[4096 + 128], path[4096];
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (n <= 0 || !maps) return;
    exe[n] = 0;
    while (fgets(line, sizeof line, maps)) {
        unsigned long long lo, hi;
        char perms[5];
        if (sscanf(line, "%llx-%llx %4s %*s %*s %*s %4095[^\n]", &lo, &hi, perms, path) == 4 &&
            strcmp(perms, "r-xp") == 0 && strcmp(path, exe) == 0) {
            exe_lo = lo, exe_hi = hi;
            break;
        }
    }
    fclose(maps);
}

__attribute__((constructor)) static void arm(void) {
    if (!getenv("SAMPLER_OUT")) return;
    find_exe_code();
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
    for (size_t i = 0; i < n; i++)
        if (callers[i])
            fprintf(f, "%llx %llx\n", samples[i], callers[i]);
        else
            fprintf(f, "%llx\n", samples[i]);
    fclose(f);
}
