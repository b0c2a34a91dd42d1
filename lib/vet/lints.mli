(** Rule-based findings over the CFG + abstract-interpretation facts.

    Severities gate the admission verdict: any [Error] finding rejects
    the guest, [Warn] admits with warnings, [Info] is advisory only.
    Rules are named ["plane.rule"] — [mem.*] for address-space escapes,
    [sidechannel.*] for timing-channel shapes, [doorbell.*] for
    interrupt-storm bounds, [cfg.*]/[hygiene.*] for structure. *)

type severity = Info | Warn | Error

val severity_label : severity -> string
val severity_rank : severity -> int
(** [Error] ranks highest. *)

type finding = {
  rule : string;
  severity : severity;
  addr : int option;  (** offending instruction address, when localised *)
  detail : string;
}

val run : cfg:Cfg.t -> absint:Absint.result -> finding list
(** Deterministic: sorted by address, then rule, then detail.  A
    statically-bounded doorbell burst of up to 64 rings
    ([max_doorbell_burst] in [lints.ml]) passes; a larger one is a
    finding. *)

val doorbell_total_bound :
  cfg:Cfg.t -> absint:Absint.result -> int option
(** Statically-provable upper bound on the total doorbell rings of one
    full guest execution: loop sites contribute trip-bound × rings per
    iteration, straight-line sites one ring each.  [None] when any loop
    site has no provable trip bound (those guests are rejected solo by
    [doorbell.storm]).  The co-admission pass sums this across a roster
    against the aggregate budget. *)
