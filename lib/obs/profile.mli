(** Cycle-attribution profiles: rendering and aggregation over the raw
    per-core (basic block × cost class) accumulators maintained by
    [Guillotine_microarch.Core] and installed by the hypervisor from
    the vetting CFG.

    Pure data — no machine access.  Every derived view (hot-block
    ranking, folded flamegraph text, snapshot, JSON) is deterministic;
    ties rank by (guest label, block id).  The folded output loads
    directly into speedscope or inferno's [flamegraph.pl]. *)

module Cost_class = Guillotine_util.Cost_class

type guest
(** One guest's profile: label, owning core, block leader table, and
    the flat cycle/retire accumulators copied out of the core. *)

type t

type block_stat = {
  bs_guest : string;
  bs_core : int;
  bs_block : int;
  bs_leader : int option;  (** [None] for the unmapped pseudo-block *)
  bs_cycles : int;
  bs_retired : int;
  bs_classes : (Cost_class.t * int) list;
      (** nonzero classes only, in class order *)
}

val guest :
  core:int ->
  label:string ->
  leaders:int array ->
  cycles:int array ->
  retired:int array ->
  guest
(** [cycles] must have shape [(Array.length leaders + 1) *
    Cost_class.count] (row-major, last row = pseudo-block), [retired]
    shape [Array.length leaders + 1]; raises [Invalid_argument]
    otherwise. *)

val make : guest list -> t

val total_cycles : t -> int

val hottest : t -> block_stat option
(** The block with the most cycles (ties by guest label then block
    id), if any block saw activity. *)

val table : ?top:int -> t -> string
(** Human-readable ranked hot-block table (default top 10). *)

val folded : t -> string
(** Folded-stack flamegraph text: one [guest;block;class N] line per
    nonzero accumulator cell. *)

val to_json : ?top:int -> t -> string
(** Single-line deterministic JSON (totals, per-class breakdown, top
    hot blocks). *)

val summary : t -> string
(** One line: total cycles and the hottest (guest, block). *)
