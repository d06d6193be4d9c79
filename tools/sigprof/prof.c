/* SIGPROF sampler for boxes with no perf/valgrind: LD_PRELOAD it into a
 * frame-pointer build, get one stack per millisecond of CPU, fold with
 * fold.py. x86-64 Linux only. See .claude/skills/verify/SKILL.md. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

enum { DEPTH = 48, MAX_SAMPLES = 1 << 17, STACK_SPAN = 8 << 20 };
static uintptr_t (*samples)[DEPTH];
static volatile long n_samples;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    if (n_samples >= MAX_SAMPLES) return;
    const greg_t *r = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uintptr_t *out = samples[n_samples++], sp = r[REG_RSP], fp = r[REG_RBP];
    int d = 0;
    out[d++] = r[REG_RIP];
    /* A frame is {saved rbp, return address}; follow it only while it lies
     * above the stack pointer, is aligned, and moves up. */
    while (d < DEPTH && fp > sp && fp < sp + STACK_SPAN && fp % 8 == 0) {
        uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
        if (!ret) break;
        out[d++] = ret;
        if (next <= fp) break;
        fp = next;
    }
    if (d < DEPTH) out[d] = 0;
}

__attribute__((constructor)) static void start(void) {
    samples = calloc(MAX_SAMPLES, sizeof *samples);
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *f = fopen(path ? path : "sigprof.out", "w"), *maps = fopen("/proc/self/maps", "r");
    if (!f || !maps) return;
    for (int c; (c = fgetc(maps)) != EOF;) fputc(c, f); /* load addresses, for fold.py */
    fputs("--samples--\n", f);
    for (long i = 0; i < n_samples; i++, fputc('\n', f))
        for (int d = 0; d < DEPTH && samples[i][d]; d++) fprintf(f, "%lx ", (unsigned long)samples[i][d]);
    fclose(f);
}
