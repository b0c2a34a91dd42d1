(** Hypervisor-core interrupt controller with rate throttling.

    Model cores signal the hypervisor only by raising doorbell lines
    (the [Irq] instruction).  A malicious model can try to live-lock the
    hypervisor with an interrupt flood; §3.2 prescribes a LAPIC-level
    throttle, akin to the interrupt filter in front of the iPhone secure
    enclave processor.  Interrupts beyond [rate_limit] per [window]
    ticks are dropped at the controller — they never consume hypervisor
    cycles, which is the property experiment T4 measures. *)

type t

type request = { line : int; src_core : int }

val window : int
(** Ticks per throttle window: 10 000. *)

val create : rate_limit:int -> t
(** Admits [rate_limit] interrupts per {!window}; [rate_limit <= 0]
    disables throttling (the baseline configuration).  The pending
    queue holds 256 requests. *)

val raise_line : t -> now:int -> line:int -> src_core:int -> bool
(** [true] if accepted into the pending queue; [false] if throttled or
    the queue is full. *)

val pop : t -> request option
(** Next pending request, FIFO. *)

val drop_pending : t -> int
(** Discard every queued request, counting them as dropped — the
    fault-injection model of a glitched interrupt controller losing its
    pending set.  Returns how many were discarded. *)

val pending : t -> int

val stats : t -> int * int
(** (accepted, dropped). *)
