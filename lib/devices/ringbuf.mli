(** Single-producer single-consumer ring buffer laid out in shared IO
    DRAM (§3.3: "a port associated with a network device might place a
    ring buffer in shared memory").

    One ring carries messages in one direction; a port uses a pair
    (request ring written by the model, response ring written by the
    hypervisor).  Because both sides address the same [Dram.t] words,
    this is a faithful shared-memory channel: the hypervisor can audit
    every word, and the model can attempt to corrupt control words —
    which the consumer-side validation must catch.

    Layout at [base] (word offsets):
    {v
      +0  magic        +1 capacity (slots)   +2 slot_words
      +3  head (consumer cursor, monotone)   +4 tail (producer cursor)
      +5.. capacity * slot_words data        (slot: [0]=msg length, 1..=payload)
    v} *)

type t

val init : Guillotine_memory.Dram.t -> base:int -> capacity:int -> slot_words:int -> t
(** Format the control block and return a handle.  [capacity] and
    [slot_words] must be positive; the region must fit in the DRAM. *)

val attach : Guillotine_memory.Dram.t -> base:int -> (t, string) result
(** Re-open an existing ring, validating the control block (magic,
    sane capacity/slot size, cursors within range).  This is the
    hypervisor-side entry point and must never trust the contents. *)

val capacity : t -> int
val length : t -> int
(** Messages currently queued; reads the live control words. *)

val push : t -> int64 array -> (unit, string) result
(** Producer: append one message (length <= slot_words - 1).  Fails when
    full or oversized. *)

val pop : t -> (int64 array, string) result option
(** Consumer: take the oldest message.  [None] when empty;
    [Some (Error _)] when the slot is corrupt (e.g. the producer wrote a
    bogus length) — the message is consumed and reported, never trusted. *)

val base : t -> int
