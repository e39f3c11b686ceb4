/* Pins the calling thread to the CPU it is running on. Threads it creates
   afterwards (OCaml domains and their backup threads) inherit the mask.
   Returns the CPU, or -1 with errno left as the kernel set it. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

value perfbench_pin_to_current_cpu(value unit)
{
  (void)unit;
  int cpu = sched_getcpu();
  if (cpu < 0) return Val_int(-1);
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  return Val_int(cpu);
}
