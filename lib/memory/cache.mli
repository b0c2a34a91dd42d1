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

type t = {
  cfg : config;
  next : t option;
  mutable tags : int array;   (* slot [set * ways + way]; -1 = invalid; one sentinel slot last *)
  mutable stamps : int array; (* LRU stamp per slot, same indexing *)
  mutable ways : int;         (* [cfg.ways] once the arrays exist, 0 before *)
  line_shift : int;
  set_mask : int;
  sets_shift : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}
(** Exposed for the core's instruction fetch, which keeps a slot hint
    per fetch site and probes it before falling back to {!access}.
    The contract that makes a hint safe to keep:
    - [tags] and [stamps] are empty, and [ways] is 0, until the
      level's first use: the first {!access}, {!slot_of} or
      {!sentinel} makes them once.  A hint is only ever a slot one of
      those returned, so the arrays exist whenever it is probed.
      {!present}, {!flush_line}, {!flush_all} and {!occupancy} on a
      level without them answer from the fresh state (every way
      invalid) without making them;
    - slots never move: way [w] of set [s] is slot [s * cfg.ways + w]
      for the cache's lifetime, and tags and stamps are mutated in
      place;
    - the sentinel slot ({!sentinel}, the last one) holds tag [min_int]
      and is never written, so it matches no tag and is the "unknown"
      hint;
    - tags are unique within a set ({!access} only fills on miss), so a
      slot of the right set whose tag matches {e is} the slot a full
      scan would find.
    A probe that hits must replicate {!access}'s hit-path mutations
    exactly (clock, hit counter, the slot's LRU stamp) — cache
    occupancy and timing are the side channels the whole model exists
    to exhibit. *)

val config_l1 : config
(** 64 sets x 8 ways x 8-word lines, 1-cycle hit. *)

val config_l2 : config
val config_l3 : config

val create : config -> next:t option -> t
(** [next = None] means misses go to DRAM at [miss_cost].  Allocates
    only the record: the tag and stamp arrays, [2 (sets * ways + 1)]
    words, are made on first use. *)

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

val slot_of : t -> set:int -> tag:int -> int
(** The slot currently holding [tag] in [set], or {!sentinel}.  Pure
    probe: no clock movement, no stats (it makes the arrays if they do
    not exist, as {!sentinel} does). *)

val sentinel : t -> int
(** The never-matching slot: [sets * ways], before and after the arrays
    exist.  Makes them if they do not, so the slot can be probed. *)

val stats : t -> int * int
(** (hits, misses) since creation. *)

val occupancy : t -> int
(** Number of valid lines currently resident at this level. *)
