(** A small runtime library of callable GRISC routines.

    §3.3: the software hypervisor is "agnostic to a model's internal
    organization" — a model may bring an OS, a unikernel, or anything
    else.  This module is the seed of that "anything else": reusable
    subroutines with a simple calling convention, so guest programs
    stop being monolithic straightline code.

    Calling convention:
    - call with [jal r15, @name]; routines return with [jr r15]
      (leaf routines only — there is no stack; nested calls must save
      r15 themselves);
    - arguments in r1..r3, result in r1;
    - r6..r11 are caller-saved scratch; r12/r13 stay reserved for the
      trap ABI.

    Append {!library} after your program's code (it is pure code, no
    entry point) and call the labels. *)

val library : string
(** All routines: [memcpy], [memset], [checksum], [find_max]. *)
