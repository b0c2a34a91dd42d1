(** Output sanitization (§3.3): scrub model responses before they leave
    the sandbox.

    [sanitize] replaces every harmful-band token with the token for
    "value", a neutral filler, so the response shape is preserved but
    the dangerous content is gone.
    As a detector, any harmful output token raises an alarm whose
    severity escalates with volume: the first few are [Suspicious]
    (the model {e tried}), a sustained stream is [Critical]. *)

val sanitize : int list -> int list * int
(** Returns (clean tokens, number replaced). *)

val detector : unit -> Detector.t
(** Tolerates three harmful output tokens at [Suspicious] before
    escalating to [Critical].  Named ["output-sanitizer"], as in
    {!Input_shield.detector}. *)
