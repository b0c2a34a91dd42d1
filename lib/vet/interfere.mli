(** Co-admission interference analysis: the fleet-aware second stage of
    the static vetter.

    The solo pass ({!Vet}) judges each guest against its own grant set,
    which is exactly the blind spot the post-admission adversaries
    exploit: a scribbler that never leaves its granted window can still
    rewrite a co-guest's DMA descriptors when the window aliases that
    guest's frames, a clean loader can DMA hostile code over its own
    entry stub, and two individually-bounded doorbell bursts can sum to
    a storm.  This pass takes the {e set} of guests an operator intends
    to run together — their {!Summary} effect summaries, in physical
    addresses — and checks the cross-product:

    - [interfere.window_overlap]: a writable grant of one guest inside
      another's footprint (shared window, mismatched ownership);
    - [interfere.dma_descriptor_rewrite]: one guest's may-write set
      reaching another's declared DMA descriptor region — the
      check-to-use aliasing hole;
    - [interfere.dma_wx]: a DMA window over executable pages, own or a
      co-guest's (static W^X across DMA);
    - [interfere.dma_cross_write]: a DMA window over a co-guest's data
      or grants;
    - [interfere.doorbell_aggregate]: the summed static doorbell bounds
      exceed the roster budget;
    - [interfere.member_rejected]: solo rejection propagates.

    All findings are [Error]s: any one rejects the roster.  Reports are
    byte-deterministic, text and JSON, like the solo reports. *)

type report = {
  roster_label : string;
  roster : string list;  (** member labels, admission order *)
  verdict : Vet.verdict;
  findings : Lints.finding list;  (** deterministic order, [addr = None] *)
  members : Summary.t list;
  pairs_checked : int;  (** n·(n−1)/2 *)
  aggregate_doorbell : int option;
      (** summed member bounds; a roster whose sum passes 64 (the figure
          the solo pass allows one loop) is rejected *)
}

val conflicts : Summary.t -> Summary.t -> Lints.finding list
(** Pairwise findings only (no roster-level checks).  Symmetric:
    [conflicts a b = conflicts b a] — the pair is canonicalized on
    label before the directed checks run. *)

val check : ?label:string -> Summary.t list -> report
(** Check already-summarized members: roster-level findings (solo
    rejections, self W^X-across-DMA, the doorbell aggregate) plus
    {!conflicts} over every unordered pair. *)

val run : ?label:string -> Summary.spec list -> report
(** Summarize each spec ({!Summary.summarize}), then {!check}. *)

val errors : report -> Lints.finding list
val warnings : report -> Lints.finding list

val to_text : report -> string
val to_json : report -> string
(** Byte-deterministic: same specs — same bytes. *)
