(** The six isolation levels (§3.4), ordered from least to most
    restrictive.

    Monotonicity rule: the software hypervisor can move the system to a
    {e more} restrictive level on its own; only the control console —
    with an HSM-authorized admin quorum — can relax.  [strictness] and
    [software_may_transition] encode that rule; the physical
    hypervisor enforces it. *)

type level =
  | Standard     (** full port access under normal mediation *)
  | Probation    (** restricted ports / extra logging *)
  | Severed      (** no ports; cores powered for inspection *)
  | Offline      (** everything powered down, cables reversibly disconnected *)
  | Decapitation (** cables physically damaged; manual repair to revive *)
  | Immolation   (** physical destruction of the deployment *)

val all : level list
val to_string : level -> string
val of_string : string -> level option

val strictness : level -> int
(** Standard = 0 … Immolation = 5. *)

val software_may_transition : from:level -> target:level -> bool
(** True iff [target] is strictly more restrictive than [from] — the
    only transitions the software hypervisor may initiate. *)

val reversible : level -> bool
(** Whether the level can be left without physical intervention:
    [Decapitation] needs manual cable replacement and [Immolation] is
    terminal. *)

val ports_allowed : level -> [ `All | `Restricted | `None ]
val cores_powered : level -> bool
