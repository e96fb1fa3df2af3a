/* CPU affinity for the benchmark process (Linux). */

#define _GNU_SOURCE
#include <sched.h>
#include <sys/types.h>
#include <caml/mlvalues.h>

/* The [i]-th CPU (from 0, lowest first) the calling thread may run on,
   or -1. */
value perfbench_allowed_cpu(value i)
{
  cpu_set_t set;
  int k = Int_val(i);
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set) && k-- == 0) return Val_int(c);
  return Val_int(-1);
}

/* Pins thread [tid] (0: the caller) to CPU [cpu]; 0 on success, else -1. */
value perfbench_pin_thread(value tid, value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_int(sched_setaffinity((pid_t)Int_val(tid), sizeof set, &set) == 0 ? 0 : -1);
}

/* Moves the calling thread to the SCHED_IDLE class: it runs only when
   its CPU has nothing else to run, and a task that wakes there preempts
   it at once.  0 on success, else -1. */
value perfbench_sched_idle(value unit)
{
  struct sched_param p = { .sched_priority = 0 };
  (void)unit;
  return Val_int(sched_setscheduler(0, SCHED_IDLE, &p) == 0 ? 0 : -1);
}
