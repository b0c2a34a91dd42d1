(** The AI regulator: certificate authority, platform certifier, and
    compliance examiner (§3.5).

    One regulator can anchor many deployments: it issues their TLS
    identities (with the Guillotine extension), certifies known-good
    platform measurements, and runs the remote-attestation challenge
    ("ask a live model['s host] to attest that it uses a Guillotine
    hardware+software stack"). *)

module Attest = Guillotine_net.Attest
module Risk = Guillotine_policy.Risk
module Regulation = Guillotine_policy.Regulation

type t

val create : ?seed:int64 -> unit -> t
(** The regulator's CA is named ["ai-regulator-ca"]. *)

val ca :
  t ->
  Guillotine_crypto.Signature.signer * string * Guillotine_crypto.Signature.public_key
(** Pass to {!Deployment.create} so deployments share this trust root. *)

val certify_platform : t -> root:string -> unit
(** Register a measurement root as a certified Guillotine platform. *)

val challenge : t -> Deployment.t -> (unit, string) result
(** Full attestation round: fresh nonce, quote from the deployment,
    signature + nonce + certified-root checks.  The result is recorded
    in the deployment's audit log. *)

val remote_challenge : t -> Deployment.t -> (unit, string) result
(** The §3.5 network audit: send a fresh nonce to the deployment's
    fabric address, run the simulation until the quote comes back (or a
    1-second timeout), and verify it like {!challenge}.  Fails with
    "no response" when the deployment is physically unplugged — which is
    exactly what offline isolation looks like from the regulator's
    desk.  Requires {!Deployment.enable_attestation_service}. *)

val inspect :
  t -> now:float -> Regulation.deployment -> Regulation.violation list
(** Compliance inspection of a described deployment. *)
