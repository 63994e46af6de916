// allocprof: an allocation-site census loaded with LD_PRELOAD.
//
// It wraps malloc (operator new calls it too) and, for about one call in
// kEvery, chosen by a cheap random draw so that a loop's period cannot
// alias with the sampling, records the call's return addresses with
// backtrace(). Past kMaxSamples it keeps a uniform reservoir sample of the
// sampled calls, so a long run is not described by its first seconds
// alone. At exit, a process that sampled writes a copy of
// /proc/self/maps and its samples to allocprof.<pid>.out in its working
// directory; allocreport.py names each sample's first frame outside the
// standard library. A process that sampled nothing (a `timeout` or shell
// run in front) writes nothing, and the pid in the name keeps one process
// from overwriting another's file.
//
//   gcc -O2 -shared -fPIC -o allocprof.so tools/hostprof/allocprof.c
//   LD_PRELOAD=$PWD/allocprof.so ./binary args...
//
// backtrace() unwinds through .eh_frame, so frame pointers are not needed,
// but resolving frames to lines needs the binary built with -g. The
// counters are plain integers, so profile single-threaded programs (the
// simulator is one). A process killed by a signal never reaches the exit
// hook and writes nothing.

#define _GNU_SOURCE
#include <execinfo.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <unistd.h>

enum { kDepth = 24, kMaxSamples = 1 << 17, kEvery = 16 };

extern void* __libc_malloc(size_t size);

// 24 MiB of zeroed pages, touched only as samples arrive.
static void* samples[kMaxSamples][kDepth];
static uint64_t sampled, calls;
static uint64_t rng_state = 0x9e3779b97f4a7c15u;
static __thread int inside;  // backtrace() may allocate: do not recurse
static int ready;

static uint64_t Draw(void) {  // xorshift64
  rng_state ^= rng_state << 13;
  rng_state ^= rng_state >> 7;
  rng_state ^= rng_state << 17;
  return rng_state;
}

void* malloc(size_t size) {
  void* p = __libc_malloc(size);
  if (!ready || inside) return p;
  ++calls;
  if (Draw() % kEvery != 0) return p;
  // Reservoir: the n-th sampled call replaces a random kept one with
  // probability kMaxSamples / n.
  uint64_t slot = sampled++;
  if (slot >= kMaxSamples) {
    slot = Draw() % sampled;
    if (slot >= kMaxSamples) return p;
  }
  inside = 1;
  // Frame 0 is this function; keep its callers.
  void* frames[kDepth + 1];
  int n = backtrace(frames, kDepth + 1);
  memset(samples[slot], 0, sizeof(samples[slot]));
  for (int i = 1; i < n; ++i) samples[slot][i - 1] = frames[i];
  inside = 0;
  return p;
}

__attribute__((constructor)) static void Start(void) {
  // The first backtrace() loads the unwinder, which allocates.
  void* warm[2];
  inside = 1;
  backtrace(warm, 2);
  inside = 0;
  ready = 1;
}

__attribute__((destructor)) static void Finish(void) {
  ready = 0;
  if (sampled == 0) return;
  uint64_t kept = sampled < kMaxSamples ? sampled : kMaxSamples;
  char path[64];
  snprintf(path, sizeof(path), "allocprof.%d.out", (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  fprintf(out, "allocprof 1 every %d mallocs %llu sampled %llu kept %llu\n",
          kEvery, (unsigned long long)calls, (unsigned long long)sampled,
          (unsigned long long)kept);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof(line), maps) != NULL) {
      fprintf(out, "map %s", line);
    }
    fclose(maps);
  }
  for (uint64_t s = 0; s < kept; ++s) {
    fputs("sample", out);
    for (int i = 0; i < kDepth && samples[s][i] != NULL; ++i) {
      fprintf(out, " %lx", (unsigned long)(uintptr_t)samples[s][i]);
    }
    fputc('\n', out);
  }
  fclose(out);
}
