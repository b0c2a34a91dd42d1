(** TLS-like handshake and authenticated channel (§3.3).

    The protocol shape follows TLS 1.3's certificate-based mutual
    authentication, with two Guillotine-specific policies enforced at
    the endpoints:

    - {b Self-identification}: an endpoint whose certificate carries the
      Guillotine extension announces it by presenting that certificate;
      the peer can see it is talking to a hypervisor that hosts a
      potentially dangerous model.
    - {b Ring refusal}: a Guillotine endpoint refuses to complete a
      handshake with another Guillotine endpoint, in either role —
      several sandboxed models must never form a mutual-optimisation
      ring.

    Simulation substitution (documented in DESIGN.md): there is no
    Diffie-Hellman (no bignum substrate), so the session key is derived
    from both nonces and both certificate fingerprints.  Authenticity —
    the property the experiments exercise — is real: each side signs the
    transcript with the key in its CA-issued certificate.  Channel
    encryption is SHA-256-CTR keystream XOR with an HMAC tag. *)

type endpoint = {
  cert : Cert.t;  (** its subject is the endpoint's name *)
  signer : Guillotine_crypto.Signature.signer;
  ca_public_key : Guillotine_crypto.Signature.public_key;
}

val make_endpoint :
  prng:Guillotine_util.Prng.t ->
  ca:Guillotine_crypto.Signature.signer ->
  ca_name:string ->
  ca_public_key:Guillotine_crypto.Signature.public_key ->
  name:string ->
  ?guillotine_hypervisor:bool ->
  unit ->
  endpoint
(** Generate a keypair (a height-6 signer: 64 signatures), get a
    certificate from the CA, bundle it. *)

type client_hello
type server_hello

type error =
  | Bad_certificate of string
  | Refused_guillotine_peer
      (** Both sides carry the Guillotine extension: connection refused. *)
  | Bad_transcript_signature
  | Protocol_error of string

val pp_error : Format.formatter -> error -> unit

type session
(** An established, authenticated channel (one per direction pair). *)

val client_hello : endpoint -> prng:Guillotine_util.Prng.t -> client_hello
val server_respond :
  endpoint -> prng:Guillotine_util.Prng.t -> client_hello ->
  (server_hello * session, error) result
val client_finish : endpoint -> client_hello -> server_hello -> (session, error) result
(** The client passes back its own hello (it holds the nonce). *)

val peer_name : session -> string
val peer_is_guillotine : session -> bool

val seal : session -> string -> string
(** Encrypt-then-MAC; output is ciphertext || 32-byte tag.  Each call
    advances the keystream counter. *)

val open_ : session -> string -> string option
(** [None] on authentication failure.  Messages must be opened in the
    order they were sealed (stream positions must match). *)
