(** A complete memory hierarchy: L1 → L2 → L3 → DRAM, as attached to a
    core's bus.

    On a Guillotine machine, model cores get one hierarchy and
    hypervisor cores a physically separate one; the baseline machine
    attaches {e the same} hierarchy object to both domains, which is the
    whole difference that the side-channel experiments measure.

    The shared IO DRAM region is uncached (device memory), so cache
    state never couples the two domains through it. *)

type t = {
  l1 : Cache.t;  (* its [next] chain holds the L2 and the L3 *)
  dram : Dram.t;
  io : (int * Dram.t) option;
  io_base_addr : int; (* max_int when no IO region is attached *)
  io_dram : Dram.t;   (* = dram when no IO region is attached *)
  io_cost : int;
  mutable cycles : int;
  mutable last_cost : int;
}
(** Exposed for the core's fetch path, which inlines the L1 probe of
    {!read_value}.  Any such inline must keep [cycles]
    and [last_cost] exactly as {!read_value} would ([cycles_spent] and
    {!read_cost} are architecturally observable). *)

val create :
  ?l1:Cache.config ->
  ?io:int * Dram.t ->
  dram:Dram.t ->
  unit ->
  t
(** The L2 and L3 are {!Cache.config_l2} and {!Cache.config_l3}.
    [io = (io_base, io_dram)] attaches the shared IO region: physical
    addresses at or above [io_base] bypass the caches and hit [io_dram]
    at offset [addr - io_base], costing 100 cycles ([io_cost]).
    Device memory is uncached so that no cache line is ever shared
    between the two domains. *)

val read_value : t -> addr:int -> int64
(** Read a word through the hierarchy, charging its cycle cost and
    moving cache state; allocates nothing (the word handed back is the
    box already stored in DRAM).  The cost of this access is
    retrievable via {!read_cost} until the next access. *)

val read_cost : t -> int
(** Cycle cost charged by the most recent {!read_value}, {!write}, or
    {!touch} on this hierarchy. *)

val write : t -> addr:int -> int64 -> int
(** Cycle cost (write-through: DRAM is always current). *)

val touch : t -> addr:int -> int
(** Cache-state-only access (instruction fetch path reuses this). *)

val flush_line : t -> addr:int -> unit
val flush_all : t -> unit

val l1 : t -> Cache.t

val cycles_spent : t -> int
(** Total memory cycles charged through this hierarchy. *)
