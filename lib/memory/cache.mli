(** Set-associative cache timing model.

    Only tags and replacement state are modelled (data stays in DRAM —
    simulation values never go stale).  What matters for Guillotine is
    the {e timing} and {e occupancy} behaviour, because those carry the
    side channels of §3.2: a prime+probe attacker fills sets, a
    co-tenant victim's accesses evict the attacker's lines, and probe
    latencies reveal which sets the victim touched.

    Physical addresses index the cache.  Replacement is true LRU within
    a set. *)

type config = {
  line_words : int; (* words per line, power of two *)
  sets : int;       (* number of sets, power of two *)
  ways : int;       (* associativity *)
  hit_cost : int;   (* cycles on hit *)
  miss_cost : int;  (* extra cycles to consult the next level / DRAM *)
}

type way = { mutable tag : int; mutable stamp : int }
(** [tag = -1] marks an invalid way. *)

type t = {
  name : string;
  cfg : config;
  next : t option;
  ways : way array array; (* [set].[way] *)
  line_shift : int;
  set_mask : int;
  sets_shift : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}
(** Exposed for the core's instruction fetch, which probes a
    remembered way before falling back to {!access}.  Ways are mutated
    in place and never replaced, so a remembered way stays the one at
    its (set, index).  A probe
    that hits must replicate {!access}'s hit-path mutations exactly
    (clock, hit counter, LRU stamp) — cache occupancy and timing are
    the side channels the whole model exists to exhibit.  Tags are
    unique within a set ({!access} only fills on miss), so a way whose
    tag matches {e is} the way a full scan would find. *)

val config_l1 : config
(** 64 sets x 8 ways x 8-word lines, 1-cycle hit. *)

val config_l2 : config
val config_l3 : config

val create : name:string -> config -> next:t option -> t
(** [next = None] means misses go to DRAM at [miss_cost]. *)

val name : t -> string
val config : t -> config

val access : t -> addr:int -> int
(** [access t ~addr] touches the line containing physical word [addr];
    returns total cycles including recursive next-level costs.  Fills the
    line on miss. *)

val present : t -> addr:int -> bool
(** Tag check without touching LRU state (a debugging/test affordance,
    not an ISA capability). *)

val flush_line : t -> addr:int -> unit
(** Evict the line here and in all lower levels (clflush semantics). *)

val flush_all : t -> unit
(** Invalidate every line here and below — the hypervisor's
    "forcibly clear all microarchitectural state" operation (§3.2). *)

val set_of_addr : t -> int -> int
(** Which set an address maps to; used by attack code to build eviction
    sets, mirroring how real attackers derive set indices from address
    bits. *)

val tag_of_addr : t -> int -> int
(** The tag an address carries at this level (pairs with
    {!set_of_addr} for probe pre-computation). *)

val way_of : t -> set:int -> tag:int -> int
(** Index of the way currently holding [tag] in [set], or -1.  Pure
    probe: no clock movement, no stats. *)

val stats : t -> int * int
(** (hits, misses) since creation or [reset_stats]. *)

val reset_stats : t -> unit

val occupancy : t -> int
(** Number of valid lines currently resident at this level. *)
