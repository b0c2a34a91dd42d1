(** Hardware security module with multi-admin quorum authorization
    (§3.4).

    The control console has seven administrators.  Relaxing the
    deployment's isolation level needs at least five of seven admin
    approvals through the HSM; restricting needs only three.  The
    asymmetry biases the system toward safety and resists a model that
    has socially engineered a minority of admins.

    Each admin holds a hash-based signing key whose public half the HSM
    checks approvals against.  [create] fixes every key's PRNG stream,
    but a key is generated only when its admin first approves or an
    approval claiming that admin is verified.  An approval is a
    signature over the canonical proposal bytes; the HSM validates
    signatures, rejects duplicate or unknown admins, binds approvals to
    the exact proposal (nonce included, so approvals cannot be replayed
    across proposals), and compares the distinct-approver count to the
    threshold for the action class. *)

type t

type proposal = {
  action : string;  (** e.g. "set-isolation" *)
  payload : string; (** e.g. the target level *)
  nonce : string;   (** issued by [new_proposal]; prevents replay *)
}

type approval (* opaque: admin id + signature *)

val create :
  ?admins:int ->
  ?relax_threshold:int ->
  ?restrict_threshold:int ->
  ?key_height:int ->
  Guillotine_util.Prng.t ->
  t
(** Defaults: 7 admins, relax 5, restrict 3 (the paper's numbers).
    [key_height] sizes each admin's few-time signing key (2^height
    approvals per admin, default 32). *)

val admin_count : t -> int
val relax_threshold : t -> int
val restrict_threshold : t -> int

val new_proposal : t -> action:string -> payload:string -> proposal
(** Stamps a fresh nonce. *)

val approve : t -> admin:int -> proposal -> approval
(** Admin [admin] signs the proposal.  Raises [Invalid_argument] for an
    unknown admin index. *)

val forge_approval : t -> claimed_admin:int -> proposal -> approval
(** An approval with a garbage signature, as a compromised console (not
    a compromised admin key) might inject.  Must never count. *)

type verdict = {
  granted : bool;
  valid_approvals : int;
  needed : int;
  rejected : (int * string) list; (** (claimed admin, reason) *)
}

val authorize : t -> kind:[ `Relax | `Restrict ] -> proposal -> approval list -> verdict
(** Validate the approval set against the threshold for [kind]. *)

val approvals_spent : t -> admin:int -> int
(** How many signatures this admin's key has issued (keys are few-time;
    the HSM tracks budget). *)
