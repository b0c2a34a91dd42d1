(** Physical DRAM, word-addressed.

    A Guillotine machine has three physically disjoint DRAM parts
    (§3.2): hypervisor DRAM, model DRAM, and the shared IO region.  Each
    is its own [Dram.t]; isolation comes from model cores having no bus
    that reaches hypervisor DRAM at all, which the machine layer encodes
    by simply never handing the model-core bus a reference to it.

    Addresses are word indices.  Out-of-range access raises
    [Bus_error] — in the real machine that is a wire that does not
    exist, and in the simulation it must never be reachable from guest
    code (the MMU faults first); reaching it indicates a simulator bug. *)

type t = { data : int64 array }
(** Concrete so the core's fetch path can read [data] directly (after
    proving the index in bounds) without a cross-module call — the
    compiler is run without flambda, so abstract accessors cost a call
    per simulated instruction.  Treat as read-only outside this module:
    every store to [data] goes through {!write} or the bulk mutators
    below. *)

exception Bus_error of { addr : int; size : int }

val create : size:int -> t
(** [size] in words; must be positive. *)

val size : t -> int
val read : t -> int -> int64
val write : t -> int -> int64 -> unit

val read_int : t -> int -> int
(** Truncating convenience for data values. *)

val write_int : t -> int -> int -> unit

val flip_bit : t -> addr:int -> bit:int -> unit
(** Invert one bit of the word at [addr] ([bit] in 0..63).  This is the
    fault-injection model of a cosmic-ray upset / Rowhammer-style
    disturbance: it bypasses the MMU entirely, as a real charge leak
    would.  Integrity sweeps are expected to catch the resulting digest
    mismatch. *)

val load_words : t -> at:int -> int64 array -> unit
val load_program : t -> Guillotine_isa.Asm.program -> unit
(** Copies the image at the program's origin. *)

val fill : t -> at:int -> len:int -> int64 -> unit
val snapshot : t -> at:int -> len:int -> int64 array
(** Used by the hypervisor's private inspection bus and by attestation
    measurement. *)

val hash_region : t -> at:int -> len:int -> string
(** Stable byte serialization of the region, for measurement digests
    (the caller hashes it). *)
