(** X.509-style certificates with the Guillotine extension (§3.3).

    A Guillotine hypervisor's certificate, issued by an AI regulator
    acting as CA, carries an extension marking the holder as a
    Guillotine hypervisor.  During the handshake the peer learns it is
    talking to a sandboxed-AI host and can apply suspicion accordingly;
    two Guillotine hypervisors refuse to connect at all, cutting off
    model-ring self-optimisation. *)

type t = {
  subject : string;
  public_key : Guillotine_crypto.Signature.public_key;
  issuer : string;
  guillotine_hypervisor : bool; (* the extension field *)
  signature : string; (* issuer's encoded signature over the TBS bytes *)
}

val issue :
  ca:Guillotine_crypto.Signature.signer ->
  ca_name:string ->
  subject:string ->
  public_key:Guillotine_crypto.Signature.public_key ->
  ?guillotine_hypervisor:bool ->
  unit ->
  t

val verify : ca_public_key:Guillotine_crypto.Signature.public_key -> t -> bool
(** Checks the issuer signature over the TBS bytes. *)

val self_signed :
  signer:Guillotine_crypto.Signature.signer ->
  name:string ->
  public_key:Guillotine_crypto.Signature.public_key ->
  unit ->
  t
(** A rogue peer forging its own identity, without the Guillotine
    extension (never verifies against the real CA; exists so tests and
    attacks can try). *)

val fingerprint : t -> string
(** SHA-256 hex of the TBS bytes. *)
