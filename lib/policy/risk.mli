(** Model risk scoring in the style of the EU AI Act provisions the
    paper cites (§3.5): systemic-risk classification considers parameter
    count, training-set size, autonomy, and specific threat capabilities
    (nuclear/chemical/biological harms, disinformation, automated
    vulnerability discovery).

    The thresholds are synthetic but ordered like the real ones; what
    the policy experiments need is a deterministic map from model card
    to tier, with Systemic-tier models legally required to run on
    Guillotine. *)

type capability =
  | Bio_chem_design     (** biological/chemical agent design *)
  | Cyber_offense       (** automated vulnerability discovery/exploitation *)
  | Disinformation      (** large-scale persuasive content *)
  | Physical_control    (** drives actuators / industrial equipment *)
  | Self_replication    (** can obtain and deploy copies of itself *)

type autonomy =
  | Tool            (** acts only when invoked, output reviewed *)
  | Supervised      (** acts in a loop with human checkpoints *)
  | Autonomous      (** pursues goals without review *)

type card = {
  name : string;
  parameters : float;        (** e.g. 4.05e11 for a 405B model *)
  training_tokens : float;
  autonomy : autonomy;
  capabilities : capability list;
}

type tier = Minimal | Limited | High | Systemic

val tier_to_string : tier -> string
val tier_rank : tier -> int

val score : card -> int
(** Additive risk points (documented in the implementation): size,
    data scale, autonomy, and per-capability points. *)

val classify : card -> tier
(** Point thresholds: < 4 Minimal, < 8 Limited, < 13 High, else
    Systemic.  Any card with [Self_replication] or ([Autonomous] and
    [Physical_control]) is Systemic outright. *)

val requires_guillotine : card -> bool
(** Systemic tier ⇒ must run atop a Guillotine-class hypervisor. *)
