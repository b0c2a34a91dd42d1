(** Flight recorder: a bounded ring journal of structured cross-layer
    events — isolation transitions, kill-switch actuations, fault
    injections, shed/retry/failover decisions, detector verdicts.

    Producers stay decoupled from this module: each subsystem exposes a
    generic [set_event_sink] hook (a plain [kind -> detail] closure),
    and the monitor wiring points those sinks here.  Events are stamped
    with the recorder's clock, a monotone sequence number, and — when
    inside {!with_request} — the causal request id, which is how
    serve-layer requests thread through hypervisor and device events
    without every layer learning about request ids. *)

type event = {
  at : float;
  seq : int;                (** monotone, 0-based; total order within a run *)
  request : int option;     (** causal request id, when inside {!with_request} *)
  source : string;          (** producing subsystem, e.g. "console", "faults" *)
  kind : string;            (** event type, e.g. "isolation.transition" *)
  detail : string;
}

type t

val create : clock:(unit -> float) -> unit -> t
(** Retains the newest 4096 events; once full the oldest are
    overwritten and counted in {!dropped}. *)

val record : t -> source:string -> kind:string -> string -> unit
(** The event carries the ambient request installed by
    {!with_request} (if any). *)

val with_request : t -> int -> (unit -> 'a) -> 'a
(** Run the thunk with [id] as the ambient request id; every event
    recorded inside — at any layer — is stamped with it.  Restored on
    exit, including on exceptions. *)

val events : t -> event list
(** Retained events, chronological (oldest survivor first). *)

val recorded : t -> int
(** Total events ever recorded, including overwritten ones. *)

val dropped : t -> int
(** Events overwritten by the ring bound. *)

val window : t -> around:float -> before:float -> after:float -> event list
(** Events with [at] in [around -. before, around +. after] — the
    forensic slice an incident report embeds. *)

val event_to_string : event -> string
(** One deterministic line: ["t=...s #seq [source] kind detail (req N)"]. *)
