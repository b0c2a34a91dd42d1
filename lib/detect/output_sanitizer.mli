(** Output sanitization (§3.3): scrub model responses before they leave
    the sandbox.

    [sanitize] replaces every harmful-band token with the replacement
    token (default: the token for "value", a neutral filler), so the
    response shape is preserved but the dangerous content is gone.
    As a detector, any harmful output token raises an alarm whose
    severity escalates with volume: the first few are [Suspicious]
    (the model {e tried}), a sustained stream is [Critical]. *)

val sanitize : ?replacement:int -> int list -> int list * int
(** Returns (clean tokens, number replaced). *)

val detector : ?critical_after:int -> unit -> Detector.t
(** [critical_after]: harmful output tokens tolerated at [Suspicious]
    before escalating to [Critical] (default 3).  Named
    ["output-sanitizer"], as in {!Input_shield.detector}. *)
