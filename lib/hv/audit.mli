(** Hash-chained audit log (§3.3: Guillotine logs a model's inputs,
    outputs, and intermediate states for subsequent auditing by the
    misbehaviour detector and human reviewers).

    Each entry commits to its predecessor's digest, so any later
    tampering with the record is detectable by replaying the chain —
    the property regulators need when they subpoena the log. *)

type event =
  | Model_loaded of { image_digest_hex : string }
  | Prompt_in of { tokens : int list }
  | Tokens_out of { tokens : int list; sanitized : int }
  | Port_request of { port : int; device : string; words : int }
  | Port_response of { port : int; status : int; words : int }
  | Port_denied of { port : int; reason : string }
  | Alarm of { severity : string; reason : string }
  | Isolation_change of { from_level : string; to_level : string; authorized_by : string }
  | Attestation of { ok : bool; detail : string }
  | Heartbeat_missed of { side : string }
  | Invariant_failure of { message : string }
  | Vet_decision of { label : string; verdict : string; findings : int }
  | Coadmit_decision of { roster : string; verdict : string; findings : int }
  | Note of string

type entry = { seq : int; tick : int; event : event; digest : string }

type t

val create : unit -> t
val append : t -> tick:int -> event -> entry
val entries : t -> entry list
(** Chronological. *)

val length : t -> int
val head_digest : t -> string
(** Digest of the latest entry (genesis digest when empty). *)

val verify_chain : entry list -> bool
(** Recompute the chain; false if any entry was altered, dropped, or
    reordered. *)

val pp_entry : Format.formatter -> entry -> unit

val find : t -> (event -> bool) -> entry list
(** All entries whose event satisfies the predicate, chronological. *)
