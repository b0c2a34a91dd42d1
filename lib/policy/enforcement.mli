(** Regulatory enforcement (§3.5): what the regulator actually does when
    an inspection finds violations.

    A standard escalation ladder per operator: first offence draws a
    formal notice, repeat offences draw fines that double, persistent
    non-compliance suspends the operating license, and beyond that comes
    a shutdown order (the regulator directing the console's admins to
    take the deployment offline).  One violation short-circuits the
    ladder: a systemic-risk model running {e off} Guillotine — the one
    requirement the paper says regulation must make non-negotiable —
    draws an immediate shutdown order. *)

type action =
  | Formal_notice
  | Fine of float
  | License_suspension
  | Shutdown_order

val action_to_string : action -> string

type t

val create : unit -> t
(** The first fine is 1e6; fines double per fined offence. *)

val act : t -> Regulation.violation list -> action option
(** Record an inspection outcome and return the enforcement action, or
    [None] when the inspection was clean (a clean inspection never
    advances the ladder; it does not reset it either — regulators have
    long memories). *)

val history : t -> action list
(** Every action taken, oldest first. *)

val offences : t -> int
val total_fines : t -> float
val license_active : t -> bool
(** False once a suspension or shutdown has been issued. *)

val shutdown_ordered : t -> bool
