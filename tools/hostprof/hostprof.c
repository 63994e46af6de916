// hostprof: a sampling profiler loaded with LD_PRELOAD.
//
// Each millisecond of CPU time (ITIMER_PROF) the SIGPROF handler records
// the interrupted PC and up to kDepth - 1 return addresses found by walking
// the frame-pointer chain, so build what you profile with
// -fno-omit-frame-pointer. At exit, a process that took samples writes a
// copy of /proc/self/maps and the samples to hostprof.<pid>.out in its
// working directory; report.py resolves them. A process that took none
// (a `timeout` or shell run in front) writes nothing, and the pid in the
// name keeps one process from overwriting another's file.
//
//   gcc -O2 -shared -fPIC -o hostprof.so tools/hostprof/hostprof.c
//   LD_PRELOAD=$PWD/hostprof.so ./binary args...
//
// Only the main thread's frames are walked (the chain must stay inside its
// stack); other threads record their PC alone. A process killed by a
// signal never reaches the exit hook and writes nothing.

#define _GNU_SOURCE
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kDepth = 8, kMaxSamples = 1 << 18, kIntervalUs = 1000 };

// 16 MiB of zeroed pages, touched only as samples arrive.
static uintptr_t samples[kMaxSamples][kDepth];
static volatile sig_atomic_t taken;
static volatile sig_atomic_t dropped;
static uintptr_t stack_lo, stack_hi;

static void OnProf(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  if (taken >= kMaxSamples) {
    ++dropped;
    return;
  }
  const ucontext_t* uc = (const ucontext_t*)context;
  uintptr_t* out = samples[taken];
  out[0] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
  for (int i = 1; i < kDepth; ++i) {
    // A frame is {saved rbp, return address}; stop at anything that is not
    // an aligned address inside the stack, or that does not move outward.
    if (fp < stack_lo || fp >= stack_hi || stack_hi - fp < 16 ||
        (fp & 7) != 0) {
      break;
    }
    const uintptr_t* frame = (const uintptr_t*)fp;
    out[i] = frame[1];
    if (frame[0] <= fp) break;
    fp = frame[0];
  }
  ++taken;
}

__attribute__((constructor)) static void Start(void) {
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* base = NULL;
    size_t size = 0;
    if (pthread_attr_getstack(&attr, &base, &size) == 0) {
      stack_lo = (uintptr_t)base;
      stack_hi = stack_lo + size;
    }
    pthread_attr_destroy(&attr);
  }
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_sigaction = OnProf;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);
  struct itimerval every = {{0, kIntervalUs}, {0, kIntervalUs}};
  setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void Finish(void) {
  struct itimerval off;
  memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, NULL);
  if (taken == 0) return;
  char path[64];
  snprintf(path, sizeof(path), "hostprof.%d.out", (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  fprintf(out, "hostprof 1 interval_us %d samples %d dropped %d\n",
          kIntervalUs, (int)taken, (int)dropped);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof(line), maps) != NULL) {
      fprintf(out, "map %s", line);
    }
    fclose(maps);
  }
  for (int s = 0; s < taken; ++s) {
    fputs("sample", out);
    for (int i = 0; i < kDepth && samples[s][i] != 0; ++i) {
      fprintf(out, " %lx", (unsigned long)samples[s][i]);
    }
    fputc('\n', out);
  }
  fclose(out);
}
