/* The header word's CAS. A header is a block whose field 1 holds an
   immediate (the packed uid, count and state), so the runtime's
   caml_atomic_cas_field neither allocates nor records anything in its
   write barrier: the stub is called [@@noalloc], without the runtime
   transition. */

#include <caml/mlvalues.h>
#include <caml/memory.h>

value smr_mem_cas_word(value header, value expected, value desired)
{
  return Val_bool(caml_atomic_cas_field(header, 1, expected, desired));
}
