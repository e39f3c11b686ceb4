/* The heavy half of the asymmetric fence pair: membarrier(2) in its
   private expedited flavour, which interrupts every other running thread
   of this process and makes it execute a full memory barrier before the
   call returns. */

#define _GNU_SOURCE
#include <errno.h>
#include <linux/membarrier.h>
#include <sys/syscall.h>
#include <unistd.h>
#include <caml/mlvalues.h>

/* Returns 0, or the errno of the failed registration. */
value smr_fence_register(value unit)
{
  (void)unit;
  if (syscall(__NR_membarrier, MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED, 0, 0)
      == 0)
    return Val_int(0);
  return Val_int(errno);
}

/* Called without the runtime transition ([@@noalloc]): the syscall neither
   allocates nor touches the OCaml heap. Registration succeeded at module
   initialisation, so the command cannot fail with EPERM; the remaining
   errors (EINVAL, ENOSYS) would have failed registration first. */
value smr_fence_heavy(value unit)
{
  (void)unit;
  syscall(__NR_membarrier, MEMBARRIER_CMD_PRIVATE_EXPEDITED, 0, 0);
  return Val_unit;
}
