(** Merkle few-time signature scheme (MSS over Lamport leaves).

    The signer generates [2^height] Lamport keypairs; the public key is
    the Merkle root of the leaf public-key digests.  Each signature
    carries the leaf index, the Lamport public key and signature, and the
    Merkle authentication path.  This gives a genuine public-key scheme
    built only from SHA-256 — enough for the certificate authority, the
    Guillotine-hypervisor identities, and HSM admin keys, all of which
    sign a bounded number of messages in a simulation run. *)

type signer
type public_key = string
(** The 32-byte Merkle root. *)

type signature

val generate : ?height:int -> Guillotine_util.Prng.t -> signer * public_key
(** [height] defaults to 5 (32 one-time leaves); it must lie in 0–12. *)

val defer :
  ?height:int -> Guillotine_util.Prng.t -> (signer * public_key) Lazy.t
(** [defer ?height prng] is [generate ?height prng] run on first force.
    It checks [height] at the call, copies [prng] for the key and skips
    [prng] past the [2^height × 2048] draws [generate] makes, so the
    forced key equals the eager one and [prng]'s later draws are
    unchanged whether or not the key is ever forced. *)

val capacity : signer -> int
(** Total signatures the key can ever produce. *)

val remaining : signer -> int

val sign : signer -> string -> signature
(** Consumes one leaf.  Raises [Invalid_argument] once exhausted. *)

val verify : public_key -> msg:string -> signature -> bool

val encode : signature -> string
(** Flat wire encoding (used inside certificates and attestation
    quotes). *)

val decode : string -> signature option
(** Returns [None] on malformed input rather than raising. *)
