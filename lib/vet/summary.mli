(** Per-guest effect summaries for the co-admission pass.

    The solo vetter ({!Vet}) proves properties of one guest against its
    own grant set; the summary distills that fixpoint into the facts a
    {e roster} check needs, expressed in physical (DRAM) addresses so
    aliased mappings of the same frame collide where they really
    collide: may-write/may-read/may-flush interval sets, the statically
    provable doorbell budget, the guest's declared DMA windows and
    descriptor regions, and the "DMA ingress reaches executable pages"
    flag — the static form of W^X across DMA that catches a
    self-patching loader before it runs.

    Soundness: every concrete store a fully-admitted guest can execute
    lands inside [may_write].  Each abstract store interval is clamped
    against the granted write windows — the portion outside the grant is
    exactly the portion the MMU faults on at runtime — then translated
    page-wise through the declared placement. *)

module Asm = Guillotine_isa.Asm

(** {2 Physical segments} *)

type seg = { base : int; len : int }
(** A physical DRAM interval [base, base+len), in words. *)

val normalize_segs : seg list -> seg list
(** Sorted, merged (touching segments coalesce), empties dropped. *)

val intersect : seg list -> seg list -> seg list
val mem : seg list -> int -> bool
val pp_segs : seg list -> string
(** ["[b,e),[b,e)"], or ["-"] when empty.  Deterministic. *)

(** {2 Guest specification} *)

type spec = {
  label : string;
  program : Asm.program;
  code_pages : int;
  data_pages : int;
  extra : Absint.range list;  (** granted virtual windows beyond code/data *)
  frame_base : int;  (** physical frame backing virtual page 0 *)
  aliases : (int * int) list;
      (** (vpage, frame) overrides of the [frame_base] placement — how a
          granted window can reach another guest's memory *)
  dma : (int * int * bool) list;
      (** (dma_page, frame, writable) IOMMU windows planned for this
          guest's DMA engine, [Hypervisor.create_dma_engine] style *)
  dma_descriptors : Absint.range list;
      (** virtual ranges the guest re-reads as DMA descriptors *)
}

val spec :
  ?extra:Absint.range list ->
  ?frame_base:int ->
  ?aliases:(int * int) list ->
  ?dma:(int * int * bool) list ->
  ?dma_descriptors:Absint.range list ->
  label:string ->
  code_pages:int ->
  data_pages:int ->
  Asm.program ->
  spec
(** Defaults: identity placement ([frame_base] 0, no aliases), no DMA
    engine, no descriptor regions. *)

(** {2 The summary} *)

type t = {
  label : string;
  verdict : Vet.verdict;  (** the solo verdict *)
  report : Vet.report;
  code_span : seg list;  (** physical pages holding this guest's code *)
  data_span : seg list;
  grant_span : seg list;  (** physical extent of its writable grants *)
  may_read : seg list;
  may_write : seg list;
  may_flush : seg list;
  dma_writable : seg list;  (** frames its DMA engine may write *)
  descriptor_span : seg list;  (** physical DMA descriptor regions *)
  doorbell_bound : int option;  (** {!Lints.doorbell_total_bound} *)
  dma_reaches_code : bool;  (** [dma_writable] overlaps own [code_span] *)
}

val summarize : spec -> t
(** One solo fixpoint ({!Vet.analyze}) plus the distillation. *)

val footprint : t -> seg list
(** code ∪ data ∪ writable grants — everything this guest owns or may
    legitimately touch in model DRAM. *)

val pp_doorbell : int option -> string
val to_text : t -> string
(** Deterministic multi-line rendering, used by the co-admission
    report. *)
