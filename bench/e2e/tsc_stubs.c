/* The frame clock of the --layers run: the CPU's time-stamp counter where
   there is one (a few ns per read, against ~30 ns for clock_gettime in a
   VM), else CLOCK_MONOTONIC in ns. Frames.ml converts ticks to ns with a
   rate it measures against CLOCK_MONOTONIC. */

#include <caml/mlvalues.h>
#include <stdint.h>
#include <time.h>
#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

intnat e2e_ticks_native(value unit) {
  (void)unit;
#if defined(__x86_64__) || defined(__i386__)
  return (intnat)__rdtsc();
#else
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + ts.tv_nsec;
#endif
}

value e2e_ticks_bytecode(value unit) {
  return Val_long(e2e_ticks_native(unit));
}
