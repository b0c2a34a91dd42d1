(** Translation lookaside buffer — a small fully-associative cache of
    virtual-page translations with LRU replacement.

    The TLB is per-core microarchitectural state: on the baseline
    (co-tenant) machine it is shared between guest and hypervisor and
    leaks through both timing and the hypervisor's page-walk footprint;
    on Guillotine each core's TLB only ever holds one domain's entries,
    and the hypervisor's "clear all microarchitectural state" operation
    flushes it. *)

type entry = { mutable vpage : int; mutable stamp : int }
(** [vpage = -1] marks an invalid entry. *)

type t = {
  entries : entry array;
  hit_cost : int;
  walk_cost : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}
(** The representation is exposed for the core's instruction fetch,
    which probes a remembered entry before falling back to
    {!lookup}.  Entries are mutated in place and never replaced, so a
    remembered entry stays the one at its index.  Any such probe must replicate {!lookup}'s hit-path
    mutations exactly (clock, hit counter, LRU stamp): occupancy and
    timing are architecturally visible side channels.  Valid entries
    have unique [vpage]s — {!lookup} only installs a page on miss — so
    a slot whose [vpage] matches {e is} the entry a full scan would
    find. *)

val create : ?entries:int -> ?hit_cost:int -> ?walk_cost:int -> unit -> t
(** Defaults: 64 entries, hit 1 cycle, page-table walk 20 cycles. *)

val slot_of : t -> vpage:int -> int
(** Index of the entry currently holding [vpage], or -1.  Pure probe:
    no clock movement, no stats. *)

val lookup : t -> vpage:int -> int
(** Returns the cycle cost of translating a virtual page: [hit_cost] if
    cached, [hit_cost + walk_cost] otherwise (the entry is then
    installed). *)

val present : t -> vpage:int -> bool

val invalidate : t -> vpage:int -> unit
(** Required after any PTE change for that page. *)

val flush : t -> unit

val stats : t -> int * int
(** (hits, misses). *)

val reset_stats : t -> unit
