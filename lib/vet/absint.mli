(** Interval abstract interpreter over GRISC register state.

    Each register carries a signed interval (with [min_int]/[max_int] as
    the infinities) plus a timing-taint bit that marks values derived
    from [Rdcycle].  Entry states are all-top — the admission gate makes
    no assumption about residual register contents on a reused core — so
    everything the analysis proves holds for any starting state.

    The memory-safety question is phrased against the identity mapping
    installed by [Machine.install_program]: code pages are [0, code)
    readable/executable, data pages [code, code+data) read-write, plus
    any [extra] windows the hypervisor has granted (IO rings).  Every
    [Load]/[Store]/[Clflush] is classified by comparing its abstract
    address interval with those ranges. *)

module Isa = Guillotine_isa.Isa

type ivl = { lo : int; hi : int }
(** [min_int] and [max_int] are the infinities; empty intervals never
    appear (bottom is represented by state absence). *)

type value = { ivl : ivl; timing : bool }

type range = { base : int; len : int; writable : bool }
(** A granted address window: [base, base+len). *)

val normalize_windows : range list -> range list
(** Canonical window set: zero- and negative-length grants dropped,
    remaining windows sorted by base and coalesced whenever they overlap
    {e or touch} ([b.base = a.base + a.len]) — an access spanning two
    abutting grants is one contiguous permission, not two.  The merged
    window keeps the first window's [writable] flag; partition by
    writability before normalizing when the flags matter.  Idempotent. *)

type access_kind = Read | Write | Flush

type access_class =
  | In_bounds   (** provably inside a granted window of the right mode *)
  | May_escape  (** interval overlaps both granted and ungranted space *)
  | Escapes     (** provably outside every granted window *)

val classify : range list -> ivl -> access_class
(** Classify an abstract address interval against a grant set.  The
    windows are put through {!normalize_windows} first, so touching
    grants count as one window: containment in the merged set is
    [In_bounds] even when the interval spans an internal boundary. *)

type access = {
  addr : int;            (** instruction address *)
  kind : access_kind;
  target : ivl;          (** abstract effective address *)
  cls : access_class;
  tainted : bool;        (** address derived from [Rdcycle] *)
}

type branch_taint = { addr : int; reg : Isa.reg }
(** A conditional branch whose condition register is timing-tainted. *)

type result = {
  pre : value array option array;
  (** Per reachable address, the abstract register file on entry;
      [None] for unreachable or never-visited addresses. *)
  accesses : access list;       (** one per reachable memory instruction *)
  tainted_branches : branch_taint list;
  jr_resolved : (int * int list) list;
  (** [Jr] sites whose operand interval collapsed to a small constant
      set — fed back into {!Cfg.build} to sharpen the graph. *)
  widenings : int;              (** joins that hit the widening threshold *)
}

val analyze :
  cfg:Cfg.t ->
  code_pages:int ->
  data_pages:int ->
  extra:range list ->
  unit ->
  result
(** Worklist fixpoint at instruction granularity, then a replay pass
    that records the access classifications.  A join may refine an
    interval 3 times ([widen_after] in [absint.ml]) before it is widened
    to infinity. *)
